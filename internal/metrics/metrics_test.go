package metrics

import (
	"encoding/csv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles = %f %f", s.Q1, s.Q3)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := quantileSorted(xs, 0.5); got != 5 {
		t.Fatalf("median = %f, want 5", got)
	}
	if got := quantileSorted(xs, 0); got != 0 {
		t.Fatalf("q0 = %f", got)
	}
	if got := quantileSorted(xs, 1); got != 10 {
		t.Fatalf("q1 = %f", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {99, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); got != cse.want {
			t.Fatalf("At(%f) = %f, want %f", cse.x, got, cse.want)
		}
	}
	if got := c.Inverse(0.5); got != 2 {
		t.Fatalf("Inverse(0.5) = %f, want 2", got)
	}
	if got := c.Inverse(1); got != 3 {
		t.Fatalf("Inverse(1) = %f, want 3", got)
	}
	pts := c.Points()
	if len(pts) != 3 { // distinct xs: 1, 2, 3
		t.Fatalf("points = %v", pts)
	}
	if pts[1][0] != 2 || pts[1][1] != 0.75 {
		t.Fatalf("points[1] = %v", pts[1])
	}
}

// TestCDFProperties: At is monotone and Inverse is its quasi-inverse.
func TestCDFProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.Float64()*20) / 2
		}
		c := NewCDF(xs)
		prev := -1.0
		for x := -1.0; x <= 11; x += 0.25 {
			p := c.At(x)
			if p < prev-1e-12 {
				return false
			}
			prev = p
		}
		for _, p := range []float64{0.1, 0.5, 0.9, 1} {
			x := c.Inverse(p)
			if c.At(x) < p-1e-12 {
				return false
			}
		}
		// Points are sorted and end at probability 1.
		pts := c.Points()
		if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] }) {
			return false
		}
		return pts[len(pts)-1][1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndPercent(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %f", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean not NaN")
	}
	if got := Percent(3, 4); got != 75 {
		t.Fatalf("percent = %f", got)
	}
	if got := Percent(1, 0); got != 0 {
		t.Fatalf("percent div0 = %f", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"n", "chronus", "or"}}
	tb.AddRowf(10, 95.5, 60.25)
	tb.AddRow("20", "90", "40")
	text := tb.String()
	if !strings.Contains(text, "chronus") || !strings.Contains(text, "95.5") {
		t.Fatalf("table text:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "n,chronus,or\n") {
		t.Fatalf("csv:\n%s", csv)
	}
	if !strings.Contains(csv, "10,95.5,60.25") {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := &Table{Header: []string{"plain", "with,comma"}}
	tb.AddRow(`say "hi"`, "line\nbreak")
	tb.AddRow("1", "2")
	got := tb.CSV()
	want := "plain,\"with,comma\"\n\"say \"\"hi\"\"\",\"line\nbreak\"\n1,2\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
	// encoding/csv must round-trip the quoted output.
	recs, err := csv.NewReader(strings.NewReader(got)).ReadAll()
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(recs) != 3 || recs[1][0] != `say "hi"` || recs[1][1] != "line\nbreak" {
		t.Fatalf("round-trip = %v", recs)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	xs := []float64{1, 3, 5}
	if got := quantileSorted(xs, 0); got != 1 {
		t.Fatalf("q=0: %f", got)
	}
	if got := quantileSorted(xs, -0.5); got != 1 {
		t.Fatalf("q<0: %f", got)
	}
	if got := quantileSorted(xs, 1); got != 5 {
		t.Fatalf("q=1: %f", got)
	}
	if got := quantileSorted(xs, 2); got != 5 {
		t.Fatalf("q>1: %f", got)
	}
	// Duplicates: every quantile of a constant sample is that constant.
	con := []float64{7, 7, 7, 7}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := quantileSorted(con, q); got != 7 {
			t.Fatalf("constant q=%f: %f", q, got)
		}
	}
	// Single element.
	if got := quantileSorted([]float64{42}, 0.73); got != 42 {
		t.Fatalf("singleton: %f", got)
	}
}

func TestCDFInverseEdgeCases(t *testing.T) {
	empty := NewCDF(nil)
	if !math.IsNaN(empty.Inverse(0.5)) || !math.IsNaN(empty.At(1)) {
		t.Fatal("empty CDF not NaN")
	}
	c := NewCDF([]float64{1, 2, 2, 9})
	if got := c.Inverse(0); got != 1 {
		t.Fatalf("p=0: %f", got)
	}
	if got := c.Inverse(-1); got != 1 {
		t.Fatalf("p<0: %f", got)
	}
	if got := c.Inverse(1); got != 9 {
		t.Fatalf("p=1: %f", got)
	}
	if got := c.Inverse(2); got != 9 {
		t.Fatalf("p>1: %f", got)
	}
	// Duplicates: the median of {1,2,2,9} is 2 and P[X <= 2] covers both
	// copies.
	if got := c.Inverse(0.5); got != 2 {
		t.Fatalf("p=0.5: %f", got)
	}
	if got := c.At(2); got != 0.75 {
		t.Fatalf("At(2) = %f", got)
	}
	// Inverse is the left-continuous quantile: the smallest x with
	// P[X <= x] >= p.
	if got := c.Inverse(0.76); got != 9 {
		t.Fatalf("p=0.76: %f", got)
	}
}
