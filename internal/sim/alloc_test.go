package sim_test

import (
	"errors"
	"runtime"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// warmRunner builds a runner on g under d and steps it past the warm-up
// horizon: enough steps for the choice buffers to reach their high-water
// marks and for the MovesPerAction map to hold every action label.
func warmRunner(tb testing.TB, g *graph.Graph, d sim.Daemon, warmup int) *sim.Runner {
	tb.Helper()
	pr, err := core.New(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	r := sim.NewRunner(cfg, pr, d, sim.Options{Seed: 1, MaxSteps: 1 << 30})
	for i := 0; i < warmup; i++ {
		if done, err := r.Step(); done {
			tb.Fatalf("run ended during warm-up: %v", err)
		}
	}
	return r
}

// TestZeroAllocsPerStep is the tentpole's contract: once warm, a committed
// computation step of the PIF simulation performs zero heap allocations —
// the bitset bookkeeping, the shadow-box commit, the pooled choice buffers
// and the incremental enabled cache leave nothing for the allocator.
func TestZeroAllocsPerStep(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	r := warmRunner(t, g, sim.Synchronous{}, 2000)
	allocs := testing.AllocsPerRun(200, func() {
		if done, err := r.Step(); done {
			t.Fatalf("run ended mid-measurement: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.2f objects/step after warm-up, want 0", allocs)
	}
}

// TestZeroAllocsPerStepDistributed repeats the contract under a randomized
// distributed daemon, whose in-place filtering of the enabled list is the
// other commonly hit selection path.
func TestZeroAllocsPerStepDistributed(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	r := warmRunner(t, g, sim.DistributedRandom{P: 0.5}, 2000)
	allocs := testing.AllocsPerRun(200, func() {
		if done, err := r.Step(); done {
			t.Fatalf("run ended mid-measurement: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.2f objects/step after warm-up, want 0", allocs)
	}
}

// TestCycleByteBudget bounds total heap traffic across many full PIF cycles
// on a ring of 32: a warm runner driving thousands of steps (a ring-32
// synchronous cycle is ~100 steps, so this spans dozens of complete
// broadcast/feedback/clean waves) must stay within a tiny byte budget.
// Only the runner's own allocations count — the exact heap profile's
// records whose stack passes through (*sim.Runner).Step — so the Go
// runtime starting an OS thread mid-window (several KiB from allocm, malg
// and mcommoninit, on the system stack) cannot fail it.
func TestCycleByteBudget(t *testing.T) {
	const steps = 10_000
	const budgetBytes = 2048 // total across all steps, not per step
	g, err := graph.Ring(32)
	if err != nil {
		t.Fatal(err)
	}
	r := warmRunner(t, g, sim.Synchronous{}, 2000)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // record every allocation, not a sample
	before := stepAllocBytes()
	for i := 0; i < steps; i++ {
		if done, err := r.Step(); done {
			t.Fatalf("run ended mid-measurement: %v", err)
		}
	}
	if got := stepAllocBytes() - before; got > budgetBytes {
		t.Errorf("%d warm steps allocated %d bytes, budget %d", steps, got, budgetBytes)
	}
}

// stepAllocBytes returns the bytes the heap profile attributes to
// (*sim.Runner).Step so far. The collection first publishes every
// allocation made before it into the profile.
func stepAllocBytes() int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/4)
	}
	var total int64
	for _, rec := range recs[:n] {
		frames := runtime.CallersFrames(rec.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if f.Function == "snappif/internal/sim.(*Runner).Step" {
				total += rec.AllocBytes
				break
			}
		}
	}
	return total
}

// BenchmarkRunnerStep measures the hot path on the acceptance topology.
// The seed engine ran ring-64/synchronous at ~8900 ns/step with ~95
// allocs/step; the bitset engine's budget is ≤ 1/3 of that time and zero
// steady-state allocations (asserted separately by TestZeroAllocsPerStep).
func BenchmarkRunnerStep(b *testing.B) {
	bench := func(b *testing.B, g *graph.Graph, d sim.Daemon) {
		b.Helper()
		r := warmRunner(b, g, d, 2000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if done, err := r.Step(); done {
				b.Fatalf("run ended mid-benchmark: %v", err)
			}
		}
	}
	b.Run("ring-64/synchronous", func(b *testing.B) {
		g, err := graph.Ring(64)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, g, sim.Synchronous{})
	})
	b.Run("ring-64/dist-random", func(b *testing.B) {
		g, err := graph.Ring(64)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, g, sim.DistributedRandom{P: 0.5})
	})
	b.Run("grid-8x8/synchronous", func(b *testing.B) {
		g, err := graph.Grid(8, 8)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, g, sim.Synchronous{})
	})
}

// BenchmarkRunnerCycle measures whole runs (NewRunner included), the shape
// the experiment harness uses.
func BenchmarkRunnerCycle(b *testing.B) {
	g, err := graph.Ring(64)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.NewConfiguration(g, pr)
		if _, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
			Seed:     1,
			StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= 1000 },
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCopyFromZeroAllocs gates the hunter's rollout restore path: once both
// configurations exist, Configuration.CopyFrom performs zero heap
// allocations — every state box is reused in place via InPlaceState.
func TestCopyFromZeroAllocs(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := sim.NewConfiguration(g, pr)
	dst := src.Clone()
	allocs := testing.AllocsPerRun(200, func() {
		dst.CopyFrom(src)
	})
	if allocs != 0 {
		t.Errorf("CopyFrom allocates %.2f objects/call, want 0", allocs)
	}
}

// TestCopyFromRestores checks CopyFrom is a faithful deep restore: the
// destination matches the source afterwards, and further mutation of the
// destination never leaks back into the source (no aliased boxes).
func TestCopyFromRestores(t *testing.T) {
	g, err := graph.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := sim.NewConfiguration(g, pr)
	// March the source a few steps so it is not the all-clean configuration.
	if _, err := sim.Run(src, pr, sim.Synchronous{}, sim.Options{Seed: 1, MaxSteps: 5}); err != nil && !errors.Is(err, sim.ErrStepLimit) {
		t.Fatal(err)
	}

	dst := sim.NewConfiguration(g, pr)
	dst.CopyFrom(src)
	for p := 0; p < g.N(); p++ {
		if dst.States[p] == src.States[p] {
			t.Fatalf("CopyFrom aliased the state box of processor %d", p)
		}
		if core.At(dst, p) != core.At(src, p) {
			t.Fatalf("processor %d differs after CopyFrom: %+v vs %+v",
				p, core.At(dst, p), core.At(src, p))
		}
	}

	// Mutating the copy must not disturb the source.
	before := core.At(src, 1)
	s := core.At(dst, 1)
	s.L = 7
	core.Set(dst, 1, s)
	if got := core.At(src, 1); got != before {
		t.Fatalf("mutating the copy changed the source: %+v -> %+v", before, got)
	}

	// The slow path: copying into an empty configuration still works.
	empty := &sim.Configuration{G: g}
	empty.CopyFrom(src)
	for p := 0; p < g.N(); p++ {
		if core.At(empty, p) != core.At(src, p) {
			t.Fatalf("slow-path CopyFrom differs at processor %d", p)
		}
	}
}
