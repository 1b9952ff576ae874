package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"snappif/internal/core"
	"snappif/internal/engine"
	"snappif/internal/exp"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// scaleCell is one measured (topology, N, engine) point of the scaling
// grid.
type scaleCell struct {
	Topology      string  `json:"topology"`
	N             int     `json:"n"`
	Engine        string  `json:"engine"`
	Daemon        string  `json:"daemon"`
	Steps         int     `json:"steps"`
	NsPerStep     float64 `json:"ns_per_step"`
	StepsPerSec   float64 `json:"steps_per_sec"`
	MovesPerStep  float64 `json:"moves_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
}

// scaleReport is the BENCH_scale.json schema: the large-N companion to
// BENCH_sim.json. Every cell runs the snap-PIF protocol from the clean
// start under the synchronous daemon with a fixed seed, so the schedule —
// and therefore moves/step — is identical for every engine at a given
// (topology, N); only the time columns may differ.
type scaleReport struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Commit     string      `json:"commit"`
	Seed       int64       `json:"seed"`
	Cells      []scaleCell `json:"cells"`
}

// scalePoint is one N of the grid: the measured step count shrinks as N
// grows so the whole grid stays minutes, not hours; simOK gates the
// interface-based sim engine out of the sizes where a single cell would
// take longer than the rest of the grid combined.
type scalePoint struct {
	n      int
	warmup int
	steps  int
	simOK  bool
}

var scalePoints = []scalePoint{
	{n: 64, warmup: 2000, steps: 50_000, simOK: true},
	{n: 1_000, warmup: 2000, steps: 20_000, simOK: true},
	{n: 10_000, warmup: 1000, steps: 5_000, simOK: true},
	{n: 100_000, warmup: 300, steps: 1_000, simOK: false},
	{n: 1_000_000, warmup: 100, steps: 300, simOK: false},
}

// scaleTopologies builds the four topology families at size n. The random
// family is the degree-bounded sparse graph (a 1M-node Erdős–Rényi graph
// would need ~10^11 edge draws); its seed derives from n so every run of
// the emitter measures the same graphs.
func scaleTopologies(n int, seed int64) ([]*graph.Graph, error) {
	side := int(math.Round(math.Sqrt(float64(n))))
	rng := rand.New(rand.NewSource(seed + int64(n)))
	var out []*graph.Graph
	for _, b := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(n) },
		func() (*graph.Graph, error) { return graph.Ring(n) },
		func() (*graph.Graph, error) { return graph.Grid(side, (n+side-1)/side) },
		func() (*graph.Graph, error) { return graph.RandomSparse(n, n/4, rng) },
	} {
		g, err := b()
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// measureStepper warms a runner and measures ns/step, steps/sec,
// moves/step, and allocs/step over the given number of committed steps.
func measureStepper(s sim.Stepper, warmup, steps int) (ns, sps, mps, aps float64, err error) {
	for i := 0; i < warmup; i++ {
		if done, err := s.Step(); done {
			return 0, 0, 0, 0, fmt.Errorf("scale: run ended during warm-up: %v", err)
		}
	}
	movesBefore := s.Result().Moves
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	//snapvet:ok scaling-benchmark wall time is the measured quantity itself
	start := time.Now()
	for i := 0; i < steps; i++ {
		if done, err := s.Step(); done {
			return 0, 0, 0, 0, fmt.Errorf("scale: run ended during measurement: %v", err)
		}
	}
	//snapvet:ok scaling-benchmark wall time is the measured quantity itself
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	fs := float64(steps)
	return float64(elapsed.Nanoseconds()) / fs,
		fs / elapsed.Seconds(),
		float64(s.Result().Moves-movesBefore) / fs,
		float64(m1.Mallocs-m0.Mallocs) / fs,
		nil
}

// measureScaleCell measures one engine on one graph from the clean start.
func measureScaleCell(g *graph.Graph, eng string, pt scalePoint, seed int64) (scaleCell, error) {
	pr, err := core.New(g, 0)
	if err != nil {
		return scaleCell{}, err
	}
	return measureCell(engine.Spec{Engine: eng, Proto: pr, Graph: g}, g.Name(), g.N(), pt.warmup, pt.steps, seed)
}

// measureCell runs spec under the synchronous daemon and measures it.
func measureCell(spec engine.Spec, topology string, n, warmup, steps int, seed int64) (scaleCell, error) {
	spec.Daemon = sim.Synchronous{}
	spec.Options = sim.Options{Seed: seed, MaxSteps: warmup + steps + 1}
	r, err := engine.New(spec)
	if err != nil {
		return scaleCell{}, err
	}
	ns, sps, mps, aps, err := measureStepper(r, warmup, steps)
	if err != nil {
		return scaleCell{}, fmt.Errorf("%s/%s/N=%d: %w", spec.Engine, topology, n, err)
	}
	return scaleCell{
		Topology:      topology,
		N:             n,
		Engine:        spec.Engine,
		Daemon:        spec.Daemon.Name(),
		Steps:         steps,
		NsPerStep:     ns,
		StepsPerSec:   sps,
		MovesPerStep:  mps,
		AllocsPerStep: aps,
	}, nil
}

// frontierPoints sizes the cleaning-frontier cells: the regime the event
// engine exists for, where the active frontier is a vanishing fraction of N.
type frontierPoint struct {
	n      int
	warmup int
	steps  int
}

var frontierPoints = []frontierPoint{
	{n: 100_000, warmup: 300, steps: 1_000},
	{n: 1_000_000, warmup: 100, steps: 300},
}

// frontierConfig builds a mid-cleaning-wave configuration of a line:
// processors 0..front carry the feedback tail of a completed wave (chain
// tree, Fok raised), processors past front are already clean. The guards
// admit exactly one move — Cleaning(front) — and each C-action hands the
// frontier to front−1, so every committed step has one enabled processor,
// one move, and (under the synchronous daemon) one round. That makes the
// cell a pure measurement of per-step overhead that scales with N: a
// pending-bitset round accounting would copy Θ(N/64) words at every round
// boundary, while the runner's epoch accounting touches only the frontier.
func frontierConfig(g *graph.Graph, pr *core.Protocol, front int) *sim.Configuration {
	cfg := sim.NewConfiguration(g, pr)
	for p := 0; p < g.N(); p++ {
		s := core.State{Pif: core.C, Par: p - 1, L: p}
		if p == 0 {
			s.Par = core.ParNone
		}
		if p <= front {
			s.Pif = core.F
			s.Fok = true
			s.Count = 1
			s.Msg = 1
		}
		*(cfg.States[p].(*core.State)) = s
	}
	return cfg
}

// measureFrontierCell measures one flat-kernel engine ("flat" or "event")
// on the mid-cleaning-wave line of size n.
func measureFrontierCell(fp frontierPoint, eng string, seed int64) (scaleCell, error) {
	g, err := graph.Line(fp.n)
	if err != nil {
		return scaleCell{}, err
	}
	pr, err := core.New(g, 0)
	if err != nil {
		return scaleCell{}, err
	}
	// The frontier retreats one processor per committed step; +8 keeps the
	// run from draining (and the root from re-broadcasting) inside the
	// measured window.
	cfg := frontierConfig(g, pr, fp.warmup+fp.steps+8)
	return measureCell(engine.Spec{Engine: eng, Proto: pr, Config: cfg}, "line-frontier", fp.n, fp.warmup, fp.steps, seed)
}

// writeScale measures the full scaling grid and writes BENCH_scale.json.
func writeScale(path string, seed int64) error {
	commit, err := exp.VCSCommit()
	if err != nil {
		return err
	}
	rep := scaleReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit,
		Seed:       seed,
	}
	for _, pt := range scalePoints {
		tops, err := scaleTopologies(pt.n, seed)
		if err != nil {
			return err
		}
		for _, g := range tops {
			engines := engine.Names()
			if !pt.simOK {
				engines = []string{engine.Flat, engine.Event}
			}
			for _, eng := range engines {
				cell, err := measureScaleCell(g, eng, pt, seed)
				if err != nil {
					return err
				}
				rep.Cells = append(rep.Cells, cell)
				fmt.Fprintf(os.Stderr, "pifexp: scale %s N=%d %s: %.0f ns/step (%.0f steps/sec)\n",
					cell.Topology, cell.N, cell.Engine, cell.NsPerStep, cell.StepsPerSec)
			}
		}
	}
	for _, fp := range frontierPoints {
		for _, eng := range []string{engine.Flat, engine.Event} {
			cell, err := measureFrontierCell(fp, eng, seed)
			if err != nil {
				return err
			}
			rep.Cells = append(rep.Cells, cell)
			fmt.Fprintf(os.Stderr, "pifexp: scale %s N=%d %s: %.0f ns/step (%.0f steps/sec)\n",
				cell.Topology, cell.N, cell.Engine, cell.NsPerStep, cell.StepsPerSec)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
