package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"snappif/internal/service"
)

// Tiny versions of the workloads: same engines, latency and start states,
// on small topologies.
var (
	tinyRing = serveSpec{topo: "ring:24", engine: "flat", initiators: []int{0, 6, 12, 18}, rate: 20, requests: 16}
	tinyGrid = serveSpec{
		topo: "grid:4x4", engine: "event", latency: "uniform:1-3",
		initiators: []int{0, 5, 10, 15},
		faults:     []string{"uniform-random", "phantom-tree", "stale-region", "max-levels"},
		rate:       20, requests: 16,
	}
)

func tinyWorkloads() []workload {
	return []workload{
		{name: "serve-ring-flat", rep: tinyRing.rep},
		{name: "serve-grid-event", rep: tinyGrid.rep},
		{name: "suite", rep: suiteSpec{quick: true}.rep},
	}
}

type specMetric struct {
	Name, Unit string
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// assertMetrics checks that res carries exactly the wanted names, each with
// its declared unit.
func assertMetrics(t *testing.T, label string, res *result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", label, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", label, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestWorkloadNamesMatchBenchmarkJSON(t *testing.T) {
	var names []string
	for _, w := range readSpec(t).Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
}

func TestTinyRunsEmitBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick experiment suite")
	}
	spec := readSpec(t)
	for _, w := range tinyWorkloads() {
		res, err := measure(w, 7, time.Millisecond, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		assertMetrics(t, w.name+" untraced", res, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, m.Name, res.Metrics[m.Name].Value)
			}
		}

		// A tiny run collects too few profile samples for the accounting
		// check, so only the failure count is asserted here.
		res, err = measureTraced(w, 7, time.Millisecond, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		assertMetrics(t, w.name+" traced", res, spec.PerLayer)
	}
}

// serveOnce runs one tiny serving repetition and returns its inputs and
// delivered waves.
func serveOnce(t *testing.T, s serveSpec, seed int64) ([]service.Arrival, []service.Wave) {
	t.Helper()
	arrivals, err := s.arrivals(seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := s.newServer(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return arrivals, rep.Waves
}

func TestCheckServeRejectsDoctoredReports(t *testing.T) {
	for _, s := range []serveSpec{tinyRing, tinyGrid} {
		arrivals, waves := serveOnce(t, s, 3)
		if failed, problems := checkServe(arrivals, waves); failed != 0 {
			t.Fatalf("%s: genuine report rejected: %v", s.topo, problems)
		}
		// k is a wave whose lane delivered an earlier wave too.
		k := -1
		for i := range waves {
			for j := 0; j < i; j++ {
				if waves[j].Lane == waves[i].Lane {
					k = i
				}
			}
		}
		if k < 0 {
			t.Fatalf("%s: no lane delivered two waves", s.topo)
		}
		prev := -1
		for j := 0; j < k; j++ {
			if waves[j].Lane == waves[k].Lane {
				prev = j
			}
		}
		doctor := map[string]func(ws []service.Wave) []service.Wave{
			"dropped wave": func(ws []service.Wave) []service.Wave { return slices.Delete(ws, k, k+1) },
			"altered resp": func(ws []service.Wave) []service.Wave { ws[k].Resp++; return ws },
			"duplicated payload": func(ws []service.Wave) []service.Wave {
				ws[k].Msg = ws[prev].Msg
				return ws
			},
			"duplicated wave": func(ws []service.Wave) []service.Wave { return slices.Insert(ws, k, ws[k]) },
			"late enqueue":    func(ws []service.Wave) []service.Wave { ws[k].EnqueueT++; return ws },
		}
		for name, f := range doctor {
			if failed, _ := checkServe(arrivals, f(slices.Clone(waves))); failed == 0 {
				t.Errorf("%s: %s accepted", s.topo, name)
			}
		}
	}
}

// TestServeChecksPassAtHeldOutSeed runs the real serving workloads once at
// a seed kept apart from the ones the benchmark was sized with.
func TestServeChecksPassAtHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size serving runs")
	}
	const heldOut = 90210
	for _, s := range []serveSpec{serveRingFlat, serveGridEvent} {
		r, err := s.rep(heldOut, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.ops != s.requests {
			t.Errorf("%s/%s: %d of %d delivered, %d failed: %v", s.engine, s.topo, r.ops, s.requests, r.failed, r.problems)
		}
	}
}

func TestDifferingOutputsOnEqualInputsFail(t *testing.T) {
	a := &repResult{attempted: 3, inputSeed: 5, canon: []byte("x")}
	b := &repResult{attempted: 3, inputSeed: 5, canon: []byte("y")}
	if res := newResult([]*repResult{a, b}, io.Discard); res.Correct || res.Failed != 3 {
		t.Fatalf("correct=%v failed=%d, want the second repetition failed", res.Correct, res.Failed)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"snappif/internal/flat.(*Runner).refresh":      "flat",
		"snappif/internal/analysis/dataflow.Analyze":   "other",
		"snappif/internal/service.(*lane).observe":     "service",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"main.checkServe":                              "bench",
		"snappif.(*Network).Step":                      "other",
		"math/rand.(*Rand).Int63":                      "",
		"slices.SortFunc[go.shape.[]int,go.shape.int]": "",
		"container/heap.Push":                          "",
	} {
		got, _ := layerOf(fn)
		if got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU in this package, so a profile must charge it to "bench".
func spin(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestProfileChargesBench(t *testing.T) {
	var p profiler
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	byLayer, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	if total == 0 || float64(byLayer["bench"]) < 0.8*float64(total) {
		t.Fatalf("bench layer %d ns of %d profiled", byLayer["bench"], total)
	}
}
