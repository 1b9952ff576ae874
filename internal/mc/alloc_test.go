package mc_test

import (
	"math/rand"
	"runtime"
	"testing"

	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/mc"
	"snappif/internal/sim"
)

// maxMallocsPerTransition bounds the checker's heap allocations per explored
// transition. A transition applies its movers (one box each from
// Protocol.Apply) and looks the successor up in the visited table, which
// allocates nothing; states, boxes and edges live in flat arrays that grow
// geometrically. A per-successor clone, string key or selection slice would
// cost several mallocs per transition and break the budget.
const maxMallocsPerTransition = 4

// TestCheckerAllocsPerTransition runs the ring-4 systematic check under the
// distributed daemon (experiment MC's ring-4 row) and bounds its mallocs
// per transition.
func TestCheckerAllocsPerTransition(t *testing.T) {
	g, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mc.NewSnapModel(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	var configs []*sim.Configuration
	for _, inj := range append(fault.All(), fault.Clean()) {
		for seed := int64(0); seed < 2; seed++ {
			cfg := sim.NewConfiguration(g, pr)
			inj.Apply(cfg, pr, rand.New(rand.NewSource(seed)))
			configs = append(configs, cfg)
		}
	}
	c := mc.New(m, mc.DistributedPower)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := c.RunFrom(configs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Transitions == 0 {
		t.Fatalf("verification failed: %+v", res)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(res.Transitions)
	t.Logf("%d states, %d transitions, %.2f mallocs/transition", res.States, res.Transitions, per)
	if per > maxMallocsPerTransition {
		t.Fatalf("%.2f mallocs per transition, budget %d", per, maxMallocsPerTransition)
	}
}
