package telemetry_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// TestWriteTraceEventsGolden pins the Perfetto export byte for byte
// (struct-field order and sorted map keys make encoding/json output
// deterministic). Regenerate with UPDATE_GOLDEN=1 after a deliberate
// format change, then re-load the file in ui.perfetto.dev to confirm it
// still renders.
func TestWriteTraceEventsGolden(t *testing.T) {
	spans := []telemetry.Span{
		{Wave: 1, Msg: 1, StartStep: 1, FeedbackStep: 4, EndStep: 9, StartRound: 1, EndRound: 5},
		{Wave: 2, Msg: 2, StartStep: 10, FeedbackStep: 13, EndStep: 17, StartRound: 6, EndRound: 9,
			Abnormal: true, AbnProcs: 3},
		{Wave: 3, Msg: 3, StartStep: 18, StartRound: 10, Open: true},
		{Wave: 4, Msg: 4, StartStep: 20, FeedbackStep: 22, EndStep: 30, StartRound: 11, EndRound: 15,
			StartNS: 1_000_000, FeedbackNS: 1_500_000, EndNS: 2_000_000},
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTraceEvents(&buf, "golden", spans); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_events_golden.json")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace_event export drifted from golden (UPDATE_GOLDEN=1 to accept):\ngot:\n%s", buf.String())
	}

	// Structural sanity independent of the golden: valid JSON in the
	// trace_event object format, every event carrying the required keys.
	var tf struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", tf.DisplayTimeUnit)
	}
	var haveX, haveI, haveM int
	for _, ev := range tf.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			haveX++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
		case "i":
			haveI++
		case "M":
			haveM++
		}
	}
	if haveM != 3 || haveX == 0 || haveI != 1 {
		t.Fatalf("event mix M=%d X=%d i=%d, want 3 metadata, ≥1 complete, 1 instant", haveM, haveX, haveI)
	}
}

// TestSpansFromTraceMatchesLive round-trips the span pipeline: the spans
// reconstructed offline from a JSONL trace must agree with the spans the
// live telemetry recorded for the same run.
func TestSpansFromTraceMatchesLive(t *testing.T) {
	g, err := graph.RandomConnected(12, 0.25, newRand(4))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	cy, d := check.NewCycleObserver(pr), sim.DistributedRandom{P: 0.5}
	tel := telemetry.New(testConfig())
	to := &telemetry.Observer{T: tel, Proto: pr}
	var traceBuf bytes.Buffer
	tracer := obs.New(&traceBuf, pr)
	cfg := sim.NewConfiguration(g, pr)
	const seed = 6
	tracer.BeginRun(g, d.Name(), seed, cfg)
	to.Begin(telemetry.RunMeta{
		G: g, Root: 0, Seed: seed - 1, Engine: "generic", Daemon: d.Name(), NextMsg: pr.NextMsg,
	}, cfg)
	if _, err := sim.Run(cfg, pr, d, sim.Options{
		MaxSteps:  500_000,
		Seed:      seed,
		Observers: []sim.Observer{cy, tracer, to},
		StopWhen:  cy.StopAfterCycles(3),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := telemetry.SpansFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	live := tel.Spans()
	if len(offline) != len(live) || len(live) < 3 {
		t.Fatalf("span counts diverge: offline %d, live %d", len(offline), len(live))
	}
	for i := range live {
		a, b := offline[i], live[i]
		if a.Wave != b.Wave || a.Msg != b.Msg || a.StartStep != b.StartStep ||
			a.EndStep != b.EndStep || a.FeedbackStep != b.FeedbackStep || a.Open != b.Open {
			t.Fatalf("span %d diverges:\noffline: %+v\nlive:    %+v", i, a, b)
		}
	}
}

func TestSpansFromTraceNeedsMeta(t *testing.T) {
	if _, err := telemetry.SpansFromTrace(&obs.Trace{}); err == nil {
		t.Fatal("SpansFromTrace without a meta header must fail")
	}
}
