package event_test

import (
	"bytes"
	"testing"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// finalCanonical extracts the final-state snapshot from a JSONL trace and
// returns its canonical encoding.
func finalCanonical(t *testing.T, g *graph.Graph, traceBytes []byte) []byte {
	t.Helper()
	tr, err := obs.ReadTrace(bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}
	var final *obs.Event
	for _, ev := range tr.Events {
		if ev.T == "final" {
			final = ev
		}
	}
	if final == nil {
		t.Fatal("trace has no final snapshot")
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	if err := final.Restore(cfg); err != nil {
		t.Fatal(err)
	}
	buf, err := cfg.AppendCanonical(nil)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestFlightDumpEventLatencyEngine pins the flight recorder's sparse-stamp
// contract (satellite of the event engine): an asynchronous event run
// stamps the recorder with virtual times, which skip ticks — so the
// schedule ring must keep batches by insertion order, not step index. The
// dumped scenario's replay (the same hunt.Scenario path `pifhunt replay`
// executes) must land bit-for-bit in the live run's final state, and two
// replays of the same dump must produce byte-identical traces.
func TestFlightDumpEventLatencyEngine(t *testing.T) {
	for _, lat := range diffLatencies() {
		t.Run(lat.Name(), func(t *testing.T) {
			g, err := graph.Ring(16)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := core.New(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			kern, err := flat.FromCore(pr)
			if err != nil {
				t.Fatal(err)
			}
			fc, err := flat.NewConfig(kern)
			if err != nil {
				t.Fatal(err)
			}
			tel := telemetry.New(telemetry.Config{SampleEvery: 16, FlightDepth: 4, FlightEvery: 16})
			const seed, steps = 9, 150
			if _, err := drive(t, fc, kern, nil, event.Options{
				Options: sim.Options{
					MaxSteps: steps + 1,
					Seed:     seed,
					StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= steps },
				},
				Latency:       lat,
				Telemetry:     tel,
				TelemetryMeta: telemetry.RunMeta{Seed: seed - 1},
			}); err != nil {
				t.Fatal(err)
			}

			sc, err := tel.DumpScenario()
			if err != nil {
				t.Fatal(err)
			}
			var buf1 bytes.Buffer
			if rep, err := sc.Trace(&buf1, nil); err != nil {
				t.Fatal(err)
			} else if len(rep.Violations) != 0 {
				t.Fatalf("clean replay violated invariants: %+v", rep.Violations[0])
			}
			if !bytes.Equal(finalCanonical(t, g, buf1.Bytes()), fc.AppendCanonical(nil)) {
				t.Fatal("replay of an event-engine flight dump missed the live final state")
			}
			var buf2 bytes.Buffer
			if _, err := sc.Trace(&buf2, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
				t.Fatal("two replays of the same flight dump diverged")
			}
		})
	}
}

// TestEventTelemetryVirtualTimeStamps: in latency mode the telemetry layer
// must see virtual times, not step counts — the sampled series' step column
// is the committed tick, strictly increasing and (generically) sparse.
func TestEventTelemetryVirtualTimeStamps(t *testing.T) {
	g, err := graph.Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.NewConfig(kern)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Config{SampleEvery: 1})
	const steps = 200
	res, err := drive(t, fc, kern, nil, event.Options{
		Options: sim.Options{
			MaxSteps: steps + 1,
			Seed:     5,
			StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= steps },
		},
		Latency:   event.Uniform{Lo: 1, Hi: 5},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := tel.Series().Rows()
	if len(rows) == 0 {
		t.Fatal("no series rows sampled")
	}
	last := int64(0)
	depthSeen := false
	for _, r := range rows {
		if r.Step <= last {
			t.Fatalf("series steps not strictly increasing: %d after %d", r.Step, last)
		}
		last = r.Step
		if r.QDepth > 0 {
			depthSeen = true
		}
	}
	// Virtual time outruns the committed step count whenever an empty
	// effective tick is consumed; with per-link latencies in [1,5] that is
	// the generic case.
	if last <= int64(res.Steps) {
		t.Fatalf("latest sampled virtual time %d does not exceed %d committed steps — stamps look dense", last, res.Steps)
	}
	if !depthSeen {
		t.Fatal("queue_depth column never positive in latency mode")
	}
}
