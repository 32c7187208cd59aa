package chronus

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/api"
)

// TestDocsMentionEveryScheme keeps the prose in lockstep with the scheme
// registry: every registered name must appear (backticked, so a plain
// English word like "or" cannot satisfy the check by accident) in both
// README.md and EXPERIMENTS.md. Registering a scheme without documenting
// it fails here.
// TestDocsListEveryDaemonEndpoint keeps the README's REST table in
// lockstep with the daemon's endpoint registry (internal/api, the same
// table chronusd builds its mux from): every registered endpoint must
// appear backticked as `METHOD /path`. Wiring a new endpoint without
// documenting it fails here.
func TestDocsListEveryDaemonEndpoint(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, ep := range api.Endpoints {
		want := fmt.Sprintf("`%s %s`", ep.Method, ep.Path)
		if !strings.Contains(text, want) {
			t.Errorf("README.md does not document endpoint %s", want)
		}
	}
}

// TestDocsDescribeAdmissionPipeline pins the admission-pipeline docs:
// the README must name every update lifecycle state next to its REST
// table, and EXPERIMENTS.md must walk through the soak generator that
// gates the pipeline in CI.
func TestDocsDescribeAdmissionPipeline(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, state := range []string{"queued", "planning", "executing", "done", "refused", "failed"} {
		if !strings.Contains(string(readme), fmt.Sprintf("`%s`", state)) {
			t.Errorf("README.md does not document update state `%s`", state)
		}
	}
	expts, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-run soak", "chronus_admit_ledger_overcommit_total"} {
		if !strings.Contains(string(expts), want) {
			t.Errorf("EXPERIMENTS.md does not mention %q", want)
		}
	}
}

// TestDocsDescribeDriftDetection pins the observed-state docs: the
// README must name every drift status the store can classify, DESIGN.md
// must carry the §17 design chapter, and EXPERIMENTS.md must walk
// through the offline replay and the crash-drift CI gate.
func TestDocsDescribeDriftDetection(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, status := range []string{"planned", "converging", "converged", "stranded", "diverged"} {
		if !strings.Contains(string(readme), fmt.Sprintf("`%s`", status)) {
			t.Errorf("README.md does not document drift status `%s`", status)
		}
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(design), "## 17. Observed state & drift") {
		t.Error("DESIGN.md is missing the §17 observed-state chapter")
	}
	expts, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-state-from", "crash-drift", "-exec-headroom"} {
		if !strings.Contains(string(expts), want) {
			t.Errorf("EXPERIMENTS.md does not mention %q", want)
		}
	}
}

func TestDocsMentionEveryScheme(t *testing.T) {
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, name := range Schemes() {
			if !strings.Contains(text, fmt.Sprintf("`%s`", name)) {
				t.Errorf("%s does not mention scheme `%s`", doc, name)
			}
		}
	}
}

// TestDocsListEveryInternalPackage keeps the two package inventories in
// lockstep with the tree: the README's architecture diagram and DESIGN §3's
// package table must each name exactly the directories under internal/.
// Adding, deleting or renaming a package without updating both fails here.
func TestDocsListEveryInternalPackage(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	// section returns the text of doc from heading to the next heading.
	section := func(doc, heading string) string {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		i := strings.Index(text, heading)
		if i < 0 {
			t.Fatalf("%s has no %q", doc, heading)
		}
		text = text[i+len(heading):]
		if j := strings.Index(text, "\n## "); j >= 0 {
			text = text[:j]
		}
		return text
	}
	var readme []string
	treeLine := regexp.MustCompile(`(?m)^[├└]── internal/(\w+)`)
	for _, m := range treeLine.FindAllStringSubmatch(section("README.md", "## Architecture"), -1) {
		readme = append(readme, m[1])
	}
	var design []string
	tableRow := regexp.MustCompile("(?m)^\\| `internal/([^`]+)` \\|")
	for _, m := range tableRow.FindAllStringSubmatch(section("DESIGN.md", "## 3. Package inventory"), -1) {
		design = append(design, m[1])
	}
	for doc, listed := range map[string][]string{"README.md architecture tree": readme, "DESIGN.md §3": design} {
		slices.Sort(listed)
		if !slices.Equal(listed, dirs) {
			t.Errorf("%s lists internal packages %v, the tree has %v", doc, listed, dirs)
		}
	}
}
