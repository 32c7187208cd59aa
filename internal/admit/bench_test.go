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

// BenchmarkAdmitBurst is one admit-churn op: eight plan-only unit-demand
// updates over sixteen pods — six alone in their pod, two sharing one, so
// one component goes through the joint validator — submitted, awaited, and
// the previous burst's hold completed. One engine serves every burst.
func BenchmarkAdmitBurst(b *testing.B) {
	g, pods := randomPods(20170605, 16)
	var vt int64
	e := New(g, Options{Procs: 2, Now: func() int64 { return vt }})
	var held uint64
	ids := make([]uint64, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids = ids[:0]
		for k := 0; k < 8; k++ {
			pod := pods[(i*7+k%7)%len(pods)] // k = 0 and k = 7 meet in one pod
			req := Request{Tenant: "t", Flow: fmt.Sprintf("u%d.%d", i, k), Demand: 1, Init: pod.Init, Fin: pod.Fin, Hold: k == 0}
			if (i+k)%2 == 1 {
				req.Init, req.Fin = req.Fin, req.Init
			}
			vt++
			id, err := e.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		vt++
		for _, id := range ids {
			v, err := e.Wait(context.Background(), id)
			if err != nil || (v.State != string(StateDone) && v.State != string(StateExecuting)) {
				b.Fatalf("update %d: %v %s (%s)", id, err, v.State, v.Reason)
			}
		}
		if held != 0 {
			e.Complete(held)
		}
		held = ids[0]
	}
}
