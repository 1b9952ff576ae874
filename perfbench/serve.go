package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"snappif/internal/event"
	"snappif/internal/graph"
	"snappif/internal/service"
)

// serveSpec is a serving workload: a topology, an engine, one lane per
// initiator (optionally started from a corrupted state), and an open-loop
// Poisson arrival stream of uniformly mixed request kinds on random lanes.
type serveSpec struct {
	topo       string
	engine     string
	latency    string // event engine link latency; "" = engine default
	initiators []int
	faults     []string
	rate       float64 // requests per 1000 virtual ticks
	requests   int
}

var serveRingFlat = serveSpec{
	topo:       "ring:1000",
	engine:     "flat",
	initiators: []int{0, 250, 500, 750},
	rate:       1,
	requests:   100,
}

var serveGridEvent = serveSpec{
	topo:       "grid:32x32",
	engine:     "event",
	latency:    "uniform:1-3",
	initiators: []int{0, 341, 682, 1023},
	faults:     []string{"uniform-random", "phantom-tree", "stale-region", "max-levels"},
	rate:       4,
	requests:   400,
}

// repSeed gives repetition i its own input seed, so a run's figures average
// over several arrival streams. It depends on (seed, i) only.
func repSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x>>2) | 1
}

// setupSamples is how many times a repetition times its set-up.
const setupSamples = 5

// rep generates repetition i's arrivals (not timed), then times set-up
// (graph.Parse + service.New) and the serving run, and checks the report.
func (s serveSpec) rep(seed int64, i int) (*repResult, error) {
	inSeed := repSeed(seed, i)
	arrivals, err := s.arrivals(inSeed)
	if err != nil {
		return nil, err
	}
	r := &repResult{inputSeed: inSeed, attempted: len(arrivals)}
	epoch := time.Now()
	clock := func() int64 { return int64(time.Since(epoch)) }

	// Set-up is timed setupSamples times, each after a collection so that
	// no sample pays for an earlier one's garbage; the last server serves.
	for k := 1; k < setupSamples; k++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := s.newServer(inSeed, clock); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, int64(time.Since(t0)))
	}
	runtime.GC()
	var mem memDelta
	mem.start()
	t0 := time.Now()
	srv, err := s.newServer(inSeed, clock)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rep, runErr := srv.Run(arrivals)
	t2 := time.Now()
	mem.stop(r)
	r.setupNS, r.runNS = int64(t1.Sub(t0)), int64(t2.Sub(t1))
	r.setups = append(r.setups, r.setupNS)

	if runErr != nil {
		r.failed = len(arrivals)
		r.problems = []string{fmt.Sprintf("seed %d: run: %v", inSeed, runErr)}
	} else {
		r.failed, r.problems = checkServe(arrivals, rep.Waves)
		r.ops = len(rep.Waves)
		for _, w := range rep.Waves {
			r.opNS = append(r.opNS, w.WallNS)
		}
		r.canon = rep.Canonical()
		r.counts = map[string]float64{
			"wave_latency_ticks_p50": float64(rep.QuantileTicks(0.50)),
			"wave_latency_ticks_p90": float64(rep.QuantileTicks(0.90)),
			"aborts":                 float64(rep.Aborts),
			"residue":                float64(rep.Residue),
		}
		if len(rep.Waves) > 0 {
			r.counts["ticks_per_wave"] = float64(rep.Ticks) / float64(len(rep.Waves))
		}
	}
	r.checkNS = int64(time.Since(t2))
	return r, nil
}

// arrivals is the workload's open-loop request stream for one seed.
func (s serveSpec) arrivals(seed int64) ([]service.Arrival, error) {
	return service.Workload{
		Rate:     s.rate,
		Requests: s.requests,
		Lanes:    len(s.initiators),
		Seed:     seed,
	}.Generate()
}

// newServer is the timed set-up: parse the topology and build the lanes.
func (s serveSpec) newServer(seed int64, clock func() int64) (*service.Server, error) {
	g, err := graph.Parse(s.topo)
	if err != nil {
		return nil, err
	}
	opts := service.Options{
		Graph:      g,
		Engine:     s.engine,
		Initiators: s.initiators,
		Faults:     s.faults,
		Seed:       seed,
		Clock:      clock,
	}
	if s.latency != "" {
		if opts.Latency, err = event.ParseLatency(s.latency); err != nil {
			return nil, err
		}
	}
	return service.New(opts)
}

// checkServe verifies a serving report's waves against its arrival stream and
// returns the number of failed requests with the reasons:
//   - every arrival is delivered exactly once, in its lane's FIFO order,
//     with the arrival's kind, and with EnqueueT equal to the arrival time
//     (the generator is never late);
//   - each lane's wave payloads (Msg) strictly increase;
//   - the response is the same for every wave of a kind — across lanes
//     too, since every fold but reset is symmetric and associative over all
//     processors; reset returns the lane root's own value, so it is
//     compared per lane.
func checkServe(arrivals []service.Arrival, waves []service.Wave) (int, []string) {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	want := map[int][]service.Arrival{}
	for _, a := range arrivals {
		want[a.Lane] = append(want[a.Lane], a)
	}
	got := map[int][]service.Wave{}
	for _, w := range waves {
		got[w.Lane] = append(got[w.Lane], w)
	}

	// The response every wave of a kind should carry is the most common
	// one, so a single altered response is the one blamed.
	respKey := func(w service.Wave) string {
		if w.Kind == "reset" {
			return fmt.Sprintf("reset/lane%d", w.Lane)
		}
		return w.Kind
	}
	votes := map[string]map[int64]int{}
	for _, w := range waves {
		k := respKey(w)
		if votes[k] == nil {
			votes[k] = map[int64]int{}
		}
		votes[k][w.Resp]++
	}
	expected := map[string]int64{}
	for k, counts := range votes {
		best, bestN := int64(0), -1
		for resp, n := range counts {
			if n > bestN || (n == bestN && resp < best) {
				best, bestN = resp, n
			}
		}
		expected[k] = best
	}

	lanes := map[int]bool{}
	for l := range want {
		lanes[l] = true
	}
	for l := range got {
		lanes[l] = true
	}
	order := make([]int, 0, len(lanes))
	for l := range lanes {
		order = append(order, l)
	}
	slices.Sort(order)
	for _, lane := range order {
		as, ws := want[lane], got[lane]
		ai := 0
		for wi, w := range ws {
			// Arrivals due before this wave's enqueue time were skipped.
			for ai < len(as) && as[ai].T < w.EnqueueT {
				fail("lane %d: arrival at t=%d (%s) never delivered", lane, as[ai].T, as[ai].Kind)
				ai++
			}
			switch {
			case ai == len(as) || as[ai].T != w.EnqueueT || as[ai].Kind != w.Kind:
				fail("lane %d: wave msg=%d enqueued at t=%d (%s) matches no arrival", lane, w.Msg, w.EnqueueT, w.Kind)
				continue
			case wi > 0 && w.Msg <= ws[wi-1].Msg:
				fail("lane %d: payload msg=%d does not follow msg=%d", lane, w.Msg, ws[wi-1].Msg)
			case w.Resp != expected[respKey(w)]:
				fail("lane %d: %s wave msg=%d answered %d, other %s waves %d", lane, w.Kind, w.Msg, w.Resp, w.Kind, expected[respKey(w)])
			}
			ai++
		}
		for ; ai < len(as); ai++ {
			fail("lane %d: arrival at t=%d (%s) never delivered", lane, as[ai].T, as[ai].Kind)
		}
	}
	failed := len(problems)
	if failed > len(arrivals) {
		failed = len(arrivals)
	}
	return failed, problems
}
