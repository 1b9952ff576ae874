package obs_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
)

// tracedRun runs a corrupted-start PIF run with a tracer attached and
// returns the trace bytes plus the run result and final configuration.
func tracedRun(t *testing.T, w *bytes.Buffer, seed int64) (sim.Result, *sim.Configuration) {
	t.Helper()
	g, err := graph.RandomConnected(10, 0.3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	fault.UniformRandom().Apply(cfg, pr, rand.New(rand.NewSource(5)))

	tr := obs.New(w, pr)
	tr.BeginRun(g, "dist-random-0.50", seed, cfg)
	cyc := check.NewCycleObserver(pr)
	res, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
		Seed:      seed,
		Observers: []sim.Observer{cyc, tr},
		StopWhen:  cyc.StopAfterCycles(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return res, cfg
}

// TestTracerRoundTrip records a corrupted-start run and checks that the
// decoded trace carries the header, snapshots, step skeleton, and totals
// that match the live run.
func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	res, cfg := tracedRun(t, &buf, 11)

	tr, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta == nil || tr.Meta.V != obs.SchemaVersion {
		t.Fatalf("missing or versionless meta: %+v", tr.Meta)
	}
	if tr.Meta.N != 10 || len(tr.Meta.Edges) == 0 || len(tr.Meta.Actions) == 0 {
		t.Fatalf("meta lacks topology or actions: %+v", tr.Meta)
	}
	if _, err := tr.Graph(); err != nil {
		t.Fatalf("Graph(): %v", err)
	}
	if tr.Summary == nil {
		t.Fatal("missing summary")
	}
	if tr.Summary.Steps != res.Steps || tr.Summary.Moves != res.Moves || tr.Summary.Rounds != res.Rounds {
		t.Fatalf("summary %d/%d/%d, run %d/%d/%d",
			tr.Summary.Steps, tr.Summary.Moves, tr.Summary.Rounds,
			res.Steps, res.Moves, res.Rounds)
	}

	var steps, rounds, phases, waveStarts, waveEnds, inits, finals int
	for _, ev := range tr.Events {
		switch ev.T {
		case "step":
			steps++
			if steps != ev.I {
				t.Fatalf("step events out of order: %d-th has i=%d", steps, ev.I)
			}
		case "round":
			rounds++
		case "phase":
			phases++
		case "wave":
			if ev.Kind == "start" {
				waveStarts++
			} else {
				waveEnds++
			}
		case "init":
			inits++
		case "final":
			finals++
		}
	}
	if steps != res.Steps || rounds != res.Rounds {
		t.Fatalf("got %d step, %d round events; run had %d steps, %d rounds",
			steps, rounds, res.Steps, res.Rounds)
	}
	if phases == 0 {
		t.Fatal("no phase transition events")
	}
	if waveStarts < 2 || waveEnds < 1 {
		t.Fatalf("wave events: %d starts, %d ends; want ≥2 starts (2 cycles) and ≥1 end",
			waveStarts, waveEnds)
	}
	if inits != 1 || finals != 1 {
		t.Fatalf("got %d init, %d final snapshots, want 1 each", inits, finals)
	}

	// The final snapshot must equal the live final configuration.
	for _, ev := range tr.Events {
		if ev.T != "final" {
			continue
		}
		for p := 0; p < cfg.N(); p++ {
			s := core.At(cfg, p)
			if ev.Pif[p] != s.Pif.String()[0] || ev.Par[p] != s.Par ||
				ev.L[p] != s.L || ev.Count[p] != s.Count || ev.Fok[p] != s.Fok {
				t.Fatalf("final snapshot diverges at p%d: %+v vs %v", p, ev, s)
			}
		}
	}
}

// TestTracerDeterministicDiff asserts the determinism oracle: two identical
// runs produce equivalent traces, and a different seed is detected.
func TestTracerDeterministicDiff(t *testing.T) {
	var a, b, c bytes.Buffer
	tracedRun(t, &a, 11)
	tracedRun(t, &b, 11)
	tracedRun(t, &c, 12)

	ta, err := obs.ReadTrace(&a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := obs.ReadTrace(&b)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := obs.ReadTrace(&c)
	if err != nil {
		t.Fatal(err)
	}
	if d := obs.Diff(ta, tb); d != "" {
		t.Fatalf("identical runs diverge:\n%s", d)
	}
	if d := obs.Diff(ta, tc); d == "" {
		t.Fatal("different seeds not detected")
	} else if !strings.Contains(d, "diverge") {
		t.Fatalf("unexpected diff text: %s", d)
	}
}

// TestDisabledTracerZeroAllocs is the overhead contract the CI gates on: a
// disabled tracer attached to a warm runner leaves the engine's
// zero-allocation step budget intact.
func TestDisabledTracerZeroAllocs(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	r := sim.NewRunner(cfg, pr, sim.Synchronous{}, sim.Options{
		Seed:      1,
		MaxSteps:  1 << 30,
		Observers: []sim.Observer{obs.Disabled()},
	})
	for i := 0; i < 2000; i++ {
		if done, err := r.Step(); done {
			t.Fatalf("run ended during warm-up: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if done, err := r.Step(); done {
			t.Fatalf("run ended mid-measurement: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step with disabled tracer allocates %.2f objects/step, want 0", allocs)
	}
}

// TestTracerByteIdentical tightens the determinism oracle from equivalent
// to byte-identical: two runs with the same seed must serialize to the
// same JSONL bytes — any map-ordered iteration sneaking into the export
// path shows up here as a flaky diff.
func TestTracerByteIdentical(t *testing.T) {
	var a, b bytes.Buffer
	tracedRun(t, &a, 11)
	tracedRun(t, &b, 11)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identical runs serialized differently:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
}

// TestReadTraceRejectsOtherSchemaVersion pins the decoder's version gate:
// a header of another schema version is an error naming both versions, not
// a trace decoded under the wrong field meanings.
func TestReadTraceRejectsOtherSchemaVersion(t *testing.T) {
	var buf bytes.Buffer
	tracedRun(t, &buf, 11)
	lines := strings.SplitN(buf.String(), "\n", 2)
	meta := strings.Replace(lines[0], `"v":1,`, `"v":7,`, 1)
	if meta == lines[0] {
		t.Fatalf("header carries no v:1 field: %s", lines[0])
	}
	_, err := obs.ReadTrace(strings.NewReader(meta + "\n" + lines[1]))
	if err == nil {
		t.Fatal("trace of schema version 7 decoded without error")
	}
	if !strings.Contains(err.Error(), "version 7") || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("error does not name both versions: %v", err)
	}
}
