// Command perfbench measures the host-time cost of the repository's two
// user-facing workloads: PIF waves served by internal/service, and the
// paper-reproduction suite of internal/exp. It reaches the program only
// through its public entry points (graph.Parse, service.Workload.Generate,
// service.New, (*service.Server).Run, the service.Report fields, and
// exp.All()[i].Run), checks every output, and prints one JSON result line.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: serve-ring-flat, serve-grid-event, suite (see README.md).
// --trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
// re-runs every repetition under a CPU profile and prints the per-layer
// metrics instead: CPU seconds per repository package, spans around the
// calls, and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"snappif/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
		seed    = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "measurement budget in seconds")
		traced  = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadNames())
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be > 0, got %g", *seconds)
	}

	stampLine, err := json.Marshal(stamp(*seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stamp %s\n", stampLine)

	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traced == 1 {
		res, err = measureTraced(w, *seed, budget, stderr)
	} else {
		res, err = measure(w, *seed, budget, stderr)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// stamp identifies the host and build a result came from.
func stamp(seed int64) map[string]any {
	commit, err := exp.VCSCommit()
	if err != nil {
		commit = "unresolved: " + err.Error()
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"seed":       seed,
		"commit":     commit,
	}
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark input family. rep runs repetition i of a
// measurement with the given seed and checks its outputs.
type workload struct {
	name string
	rep  func(seed int64, i int) (*repResult, error)
}

// repResult is one repetition: set-up, the timed calls, and the check.
type repResult struct {
	setupNS int64   // set-up of the server or options this repetition ran
	setups  []int64 // every timed set-up sample
	runNS   int64   // the timed calls
	checkNS int64   // output checks
	opNS    []int64 // host time of each operation (wave or experiment)
	ops     int     // operations completed

	attempted, failed int
	problems          []string // why operations failed, for stderr

	allocBytes, mallocs uint64 // allocated over set-up + run
	gcCycles            uint32

	inputSeed int64  // repetitions with equal inputs must produce equal canon
	canon     []byte // deterministic output bytes

	counts map[string]float64 // exact per-layer counts (ticks, aborts, ...)
	spans  map[string]int64   // per-call host time (exp.<ID>)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloads() []workload {
	return []workload{
		{name: "serve-ring-flat", rep: serveRingFlat.rep},
		{name: "serve-grid-event", rep: serveGridEvent.rep},
		{name: "suite", rep: suiteSpec{}.rep},
	}
}

// memDelta reads allocation counters around a measured section.
type memDelta struct{ before runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop(r *repResult) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.allocBytes = after.TotalAlloc - m.before.TotalAlloc
	r.mallocs = after.Mallocs - m.before.Mallocs
	r.gcCycles = after.NumGC - m.before.NumGC
}

// more decides whether another repetition fits the budget, assuming it
// takes as long as the mean so far.
func more(elapsed time.Duration, done int, budget time.Duration) bool {
	return done == 0 || elapsed+elapsed/time.Duration(done) <= budget
}

// measure is the untraced run: repetitions until the budget is spent,
// reported as end-to-end metrics.
func measure(w workload, seed int64, budget time.Duration, log io.Writer) (*result, error) {
	var reps []*repResult
	start := time.Now()
	for i := 0; more(time.Since(start), i, budget); i++ {
		r, err := w.rep(seed, i)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	res := newResult(reps, log)
	var runNS, ops int64
	var opNS, setupNS, alloc []int64
	for _, r := range reps {
		runNS += r.runNS
		ops += int64(r.ops)
		opNS = append(opNS, r.opNS...)
		setupNS = append(setupNS, r.setups...)
		alloc = append(alloc, int64(r.allocBytes))
	}
	if ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	res.put("wall_ns_per_op", float64(runNS)/float64(ops), "ns")
	res.put("op_wall_ms_p50", quantile(opNS, 0.50)/1e6, "ms")
	res.put("op_wall_ms_p90", quantile(opNS, 0.90)/1e6, "ms")
	res.put("setup_s", quantile(setupNS, 0.50)/1e9, "s")
	res.put("heap_alloc_mb", quantile(alloc, 0.50)/1e6, "MB")
	res.put("max_rss_mb", maxRSSMB(), "MB")
	return res, nil
}

// measureTraced is the traced run. Each repetition runs untraced and then
// again on the same inputs under a CPU profile; the two must agree byte
// for byte. CPU is charged to layers (repository packages), and the sum
// of the layers must account for the process CPU time of the traced
// repetitions within 10%.
func measureTraced(w workload, seed int64, budget time.Duration, log io.Writer) (*result, error) {
	var plain, traced []*repResult
	var overhead []int64
	cpuLayers := map[string]int64{}
	var cpuNS, wallNS int64
	var prof profiler
	start := time.Now()
	for i := 0; more(time.Since(start), i, budget); i++ {
		r, err := w.rep(seed, i)
		if err != nil {
			return nil, err
		}
		if err := prof.start(); err != nil {
			return nil, err
		}
		c0, t0 := cpuTime(), time.Now()
		tr, err := w.rep(seed, i)
		wall, cpu := time.Since(t0), cpuTime()-c0
		byLayer, perr := prof.stop()
		if err != nil {
			return nil, err
		}
		if perr != nil {
			return nil, perr
		}
		for l, ns := range byLayer {
			cpuLayers[l] += ns
		}
		cpuNS += int64(cpu)
		wallNS += int64(wall)
		overhead = append(overhead, repWall(tr)-repWall(r))
		plain, traced = append(plain, r), append(traced, tr)
	}
	res := newResult(append(slices.Clone(plain), traced...), log)
	n := float64(len(traced))

	var profiled int64
	for _, l := range layers {
		profiled += cpuLayers[l]
		res.put("cpu."+l+"_s", float64(cpuLayers[l])/n/1e9, "s")
	}
	share := 0.0
	if cpuNS > 0 {
		share = float64(profiled) / float64(cpuNS)
	}
	if share < 0.9 || share > 1.1 {
		res.Correct = false
		fmt.Fprintf(log, "perfbench: layers account for %.3f of process CPU (want within 10%%)\n", share)
	}
	res.put("cpu.accounted_share", share, "ratio")
	res.put("cpu_s", float64(cpuNS)/n/1e9, "s")
	res.put("cpu_per_wall", float64(cpuNS)/float64(wallNS), "ratio")
	res.put("trace_overhead_s", quantile(overhead, 0.5)/1e9, "s")

	var setup, runs, checks, mallocs, gcs []int64
	for _, r := range traced {
		setup = append(setup, r.setupNS)
		runs = append(runs, r.runNS)
		checks = append(checks, r.checkNS)
	}
	for _, r := range plain {
		mallocs = append(mallocs, int64(r.mallocs))
		gcs = append(gcs, int64(r.gcCycles))
	}
	res.put("span.setup_s", quantile(setup, 0.5)/1e9, "s")
	res.put("span.run_s", quantile(runs, 0.5)/1e9, "s")
	res.put("span.check_s", quantile(checks, 0.5)/1e9, "s")
	res.put("allocs", quantile(mallocs, 0.5), "count")
	res.put("gc_cycles", quantile(gcs, 0.5), "count")
	res.put("failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")

	// Exact counts come from repetition 0 alone, whose inputs depend on
	// the seed only, so they repeat exactly across runs.
	for _, c := range exactCounts {
		res.put(c.name, plain[0].counts[c.name], c.unit)
	}
	for _, e := range exp.All() {
		var ns []int64
		for _, r := range traced {
			ns = append(ns, r.spans["exp."+e.ID])
		}
		res.put("exp."+e.ID+"_s", quantile(ns, 0.5)/1e9, "s")
	}
	return res, nil
}

// exactCounts are the per-layer counts every workload reports (0 where
// the workload has none).
var exactCounts = []struct{ name, unit string }{
	{"wave_latency_ticks_p50", "ticks"},
	{"wave_latency_ticks_p90", "ticks"},
	{"ticks_per_wave", "ticks"},
	{"aborts", "count"},
	{"residue", "count"},
}

func repWall(r *repResult) int64 { return r.setupNS + r.runNS + r.checkNS }

// newResult totals the operations and cross-checks repetitions that ran
// on equal inputs: their deterministic outputs must be identical.
func newResult(reps []*repResult, log io.Writer) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	canon := map[int64][]byte{}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			fmt.Fprintln(log, "perfbench: check:", p)
		}
		if prev, ok := canon[r.inputSeed]; ok && string(prev) != string(r.canon) {
			fmt.Fprintf(log, "perfbench: check: output differs between two repetitions of input seed %d\n", r.inputSeed)
			res.Failed += r.attempted - r.failed
		}
		canon[r.inputSeed] = r.canon
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	return res
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// quantile is the linearly interpolated q-quantile (0 for no samples).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[lo])
	}
	return float64(s[lo]) + (pos-float64(lo))*float64(s[lo+1]-s[lo])
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
