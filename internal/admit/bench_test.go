package admit

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// randomPods re-roots n random twelve-switch instances (demand 4, mostly
// slack links, delays up to 3) into one graph: the ruler's admission
// topology at n = 16.
func randomPods(seed int64, n int) (*graph.Graph, []*dynflow.Instance) {
	rng := rand.New(rand.NewSource(seed))
	p := topo.DefaultRandomParams(12)
	p.Demand, p.TightFraction, p.MaxDelay = 4, 0.25, 3
	g := graph.New()
	pods := make([]*dynflow.Instance, n)
	for i := range pods {
		pods[i], _ = topo.Embed(g, topo.RandomInstance(rng, p), fmt.Sprintf("p%d.", i))
	}
	return g, pods
}

// burster runs admit-churn ops: eight plan-only unit-demand updates over
// sixteen pods — six alone in their pod, two sharing one, so one
// component goes through the joint validator — submitted, awaited, and
// the previous burst's hold completed. One engine serves every burst.
type burster struct {
	e    *Engine
	pods []*dynflow.Instance
	vt   int64
	i    int
	held uint64
	ids  []uint64
}

func newBurster() *burster {
	g, pods := randomPods(20170605, 16)
	b := &burster{pods: pods, ids: make([]uint64, 0, 8)}
	b.e = New(g, Options{Procs: 2, Now: func() int64 { return b.vt }})
	return b
}

// burst runs the next op; it fails tb if an update is not planned.
func (b *burster) burst(tb testing.TB) {
	b.ids = b.ids[:0]
	for k := 0; k < 8; k++ {
		pod := b.pods[(b.i*7+k%7)%len(b.pods)] // k = 0 and k = 7 meet in one pod
		req := Request{Tenant: "t", Flow: fmt.Sprintf("u%d.%d", b.i, k), Demand: 1, Init: pod.Init, Fin: pod.Fin, Hold: k == 0}
		if (b.i+k)%2 == 1 {
			req.Init, req.Fin = req.Fin, req.Init
		}
		b.vt++
		id, err := b.e.Submit(req)
		if err != nil {
			tb.Fatal(err)
		}
		b.ids = append(b.ids, id)
	}
	b.vt++
	for _, id := range b.ids {
		v, err := b.e.Wait(context.Background(), id)
		if err != nil || (v.State != string(StateDone) && v.State != string(StateExecuting)) {
			tb.Fatalf("update %d: %v %s (%s)", id, err, v.State, v.Reason)
		}
	}
	if b.held != 0 {
		b.e.Complete(b.held)
	}
	b.held = b.ids[0]
	b.i++
}

// BenchmarkAdmitBurst is one admit-churn op per iteration (see burster).
func BenchmarkAdmitBurst(b *testing.B) {
	br := newBurster()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.burst(b)
	}
}

// TestAdmitBurstAllocs holds BenchmarkAdmitBurst's op to an allocation
// ceiling about 7 % above its count with one copy-on-write residual
// graph per wave, allocation-free empty dependency relations, steady
// checks on the stack and validator tables compiled into pooled scratch:
// 715 per burst here (729 under -race), 770 when each fresh Instance
// built its own validator tables, 1 070 when every residual copied all
// rows, 2 277 when every conflict component cloned the topology and
// Algorithm 3 built its relation on maps.
func TestAdmitBurstAllocs(t *testing.T) {
	br := newBurster()
	br.burst(t) // warm the solver pools and the held update
	if a := testing.AllocsPerRun(50, func() { br.burst(t) }); a > 765 {
		t.Fatalf("%.0f allocations per burst, ceiling 765", a)
	}
}
