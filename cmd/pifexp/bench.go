package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"snappif/internal/core"
	"snappif/internal/engine"
	"snappif/internal/exp"
	"snappif/internal/graph"
	"snappif/internal/sim"
	"snappif/internal/trace"
)

// benchCell is one measured (topology, daemon) configuration of the
// simulation hot path.
type benchCell struct {
	Topology      string  `json:"topology"`
	N             int     `json:"n"`
	Engine        string  `json:"engine"`
	Daemon        string  `json:"daemon"`
	Steps         int     `json:"steps"`
	NsPerStep     float64 `json:"ns_per_step"`
	StepsPerSec   float64 `json:"steps_per_sec"`
	MovesPerStep  float64 `json:"moves_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
	BytesPerStep  float64 `json:"bytes_per_step"`
}

// benchReport is the BENCH_sim.json schema.
type benchReport struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Commit     string         `json:"commit"`
	Cells      []benchCell    `json:"cells"`
	CellTimes  []trace.Timing `json:"experiment_cell_seconds,omitempty"`
}

// measureSim steps a warm runner for a fixed number of committed steps and
// reports throughput and per-step heap traffic. The warm-up phase absorbs
// the one-time allocations (runner scratch, MovesPerAction map growth);
// after it, the engine's zero-allocation contract makes allocs/step ≈ 0.
func measureSim(g *graph.Graph, d sim.Daemon, steps int) (benchCell, error) {
	const warmup = 2000
	pr, err := core.New(g, 0)
	if err != nil {
		return benchCell{}, err
	}
	cfg := sim.NewConfiguration(g, pr)
	r := sim.NewRunner(cfg, pr, d, sim.Options{Seed: 1, MaxSteps: warmup + steps + 1})
	for i := 0; i < warmup; i++ {
		if done, err := r.Step(); done {
			return benchCell{}, fmt.Errorf("bench: run ended during warm-up: %v", err)
		}
	}
	movesBefore := r.Result().Moves
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	//snapvet:ok benchmark harness timing; the measurement is the output, not engine state
	start := time.Now()
	for i := 0; i < steps; i++ {
		if done, err := r.Step(); done {
			return benchCell{}, fmt.Errorf("bench: run ended during measurement: %v", err)
		}
	}
	//snapvet:ok benchmark harness timing; the measurement is the output, not engine state
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	fs := float64(steps)
	return benchCell{
		Topology:      g.Name(),
		N:             g.N(),
		Engine:        engine.Sim,
		Daemon:        d.Name(),
		Steps:         steps,
		NsPerStep:     float64(elapsed.Nanoseconds()) / fs,
		StepsPerSec:   fs / elapsed.Seconds(),
		MovesPerStep:  float64(r.Result().Moves-movesBefore) / fs,
		AllocsPerStep: float64(m1.Mallocs-m0.Mallocs) / fs,
		BytesPerStep:  float64(m1.TotalAlloc-m0.TotalAlloc) / fs,
	}, nil
}

// writeBench measures the benchmark grid and writes the JSON report.
func writeBench(path string, timings *trace.Timings) error {
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			panic(fmt.Sprintf("pifexp: bench topology: %v", err))
		}
		return g
	}
	grid := []struct {
		g *graph.Graph
		d sim.Daemon
	}{
		{mk(graph.Ring(64)), sim.Synchronous{}},
		{mk(graph.Ring(64)), sim.DistributedRandom{P: 0.5}},
		{mk(graph.Grid(8, 8)), sim.Synchronous{}},
		{mk(graph.Line(64)), sim.Central{Order: sim.CentralRandom}},
	}
	commit, err := exp.VCSCommit()
	if err != nil {
		return err
	}
	rep := benchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
	}
	for _, c := range grid {
		cell, err := measureSim(c.g, c.d, 50_000)
		if err != nil {
			return err
		}
		rep.Cells = append(rep.Cells, cell)
	}
	if timings != nil && timings.Len() > 0 {
		rep.CellTimes = timings.Entries()
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
