package trace_test

import (
	"bytes"
	"math/rand"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
)

// TestRecordReplayRoundTrip records a randomized corrupted-start run with
// the step tracer, decodes the trace, and replays its step stream from the
// trace's init snapshot on the trace's topology: the replay must reproduce
// the original bit for bit.
func TestRecordReplayRoundTrip(t *testing.T) {
	g, err := graph.RandomConnected(10, 0.3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	fault.UniformRandom().Apply(cfg, pr, rand.New(rand.NewSource(7)))

	var buf bytes.Buffer
	tr := obs.New(&buf, pr)
	tr.BeginRun(g, "dist-random-0.50", 11, cfg)
	cyc := check.NewCycleObserver(pr)
	orig, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
		Seed:      11,
		Observers: []sim.Observer{cyc, tr},
		StopWhen:  cyc.StopAfterCycles(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	dec, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := dec.Graph()
	if err != nil {
		t.Fatal(err)
	}
	pr2 := core.MustNew(g2, dec.Meta.Root)
	redoCfg := sim.NewConfiguration(g2, pr2)
	var script [][]sim.Choice
	for _, ev := range dec.Events {
		switch ev.T {
		case "init":
			if err := ev.Restore(redoCfg); err != nil {
				t.Fatal(err)
			}
		case "step":
			step := make([]sim.Choice, len(ev.Exec))
			for i, pa := range ev.Exec {
				step[i] = sim.Choice{Proc: pa[0], Action: pa[1]}
			}
			script = append(script, step)
		}
	}
	replay := &sim.Replay{Script: script}
	cyc2 := check.NewCycleObserver(pr2)
	redo, err := sim.Run(redoCfg, pr2, replay, sim.Options{
		Seed:      11,
		Observers: []sim.Observer{cyc2},
		StopWhen:  cyc2.StopAfterCycles(2),
	})
	if err != nil {
		t.Fatal(err)
	}

	if orig.Steps != redo.Steps || orig.Moves != redo.Moves || orig.Rounds != redo.Rounds {
		t.Fatalf("replay diverged: %+v vs %+v", orig, redo)
	}
	for p := range cfg.States {
		if core.At(cfg, p) != core.At(redoCfg, p) {
			t.Fatalf("state of p%d diverged", p)
		}
	}
	if !replay.Exhausted() {
		t.Fatal("script not fully consumed")
	}
}
