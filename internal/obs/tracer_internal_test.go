package obs

import (
	"bytes"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// TestTracerSmallRingComplete proves the backpressure design: a ring of 2
// lines must still deliver every event.
func TestTracerSmallRingComplete(t *testing.T) {
	g, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	var buf bytes.Buffer
	tr := newTracer(&buf, pr, 2)
	tr.BeginRun(g, "synchronous", 1, cfg)
	res, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
		Seed:      1,
		Observers: []sim.Observer{tr},
		StopWhen:  func(rs *sim.RunState) bool { return rs.Steps >= 500 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, ev := range dec.Events {
		if ev.T == "step" {
			steps++
		}
	}
	if steps != res.Steps {
		t.Fatalf("ring dropped events: %d step events, run had %d steps", steps, res.Steps)
	}
}
