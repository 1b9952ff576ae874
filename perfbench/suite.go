package main

import (
	"bytes"
	"fmt"
	"time"

	"snappif/internal/exp"
	"snappif/internal/obs"
	"snappif/internal/trace"
)

// setupBatch is how many constructions one set-up sample times: a single
// construction takes well under a microsecond, too short to time alone.
const setupBatch = 500

// suiteSpec is the suite workload; quick shrinks every experiment (for
// the benchmark's own tests).
type suiteSpec struct{ quick bool }

// options is the suite's set-up, as pifexp does it by default: the
// experiment registry and serial, non-quick options on the generic engine
// at the default seed, with a fresh timing collector and metrics registry.
func (s suiteSpec) options() ([]exp.Experiment, exp.Options) {
	return exp.All(), exp.Options{
		Quick:   s.quick,
		Timings: &trace.Timings{},
		Metrics: obs.NewRegistry(),
	}
}

// timeSetup times setupBatch set-ups and returns the mean per set-up.
func (s suiteSpec) timeSetup() int64 {
	t0 := time.Now()
	for k := 0; k < setupBatch; k++ {
		s.options()
	}
	return int64(time.Since(t0)) / setupBatch
}

// rep runs all experiments of the paper-reproduction suite serially
// and checks each verdict as pifexp does (no bound exceeded, no snap
// violation). The suite has no generated input: it always runs at the
// harness's default seed, the one EXPERIMENTS.md records, so the rendered
// tables must repeat byte for byte in every repetition.
func (s suiteSpec) rep(int64, int) (*repResult, error) {
	r := &repResult{spans: map[string]int64{}}
	var mem memDelta
	mem.start()
	t0 := time.Now()
	all, opt := s.options()
	r.setupNS = int64(time.Since(t0))

	outcomes := make([]exp.Outcome, len(all))
	errs := make([]error, len(all))
	for i, e := range all {
		// Set-up samples are spread over the run, one before each
		// experiment, so that they see the same host conditions as it.
		r.setups = append(r.setups, s.timeSetup())
		start := time.Now()
		outcomes[i], errs[i] = e.Run(opt)
		ns := int64(time.Since(start))
		r.opNS = append(r.opNS, ns)
		r.spans["exp."+e.ID] = ns
		r.runNS += ns
	}
	mem.stop(r)
	t2 := time.Now()

	var canon bytes.Buffer
	for i, e := range all {
		r.attempted++
		o, err := outcomes[i], errs[i]
		if err != nil {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("%s: %v", e.ID, err))
			continue
		}
		r.ops++
		fmt.Fprintf(&canon, "=== %s — %s\n", e.ID, e.Paper)
		o.Table.Render(&canon)
		if o.BoundExceeded != 0 || o.SnapViolations != 0 {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("%s: FAILED (bound exceeded: %d, snap violations: %d)", e.ID, o.BoundExceeded, o.SnapViolations))
		}
		fmt.Fprintf(&canon, "verdict: bound exceeded: %d, snap violations: %d, baseline violations: %d\n\n",
			o.BoundExceeded, o.SnapViolations, o.BaselineViolations)
	}
	r.canon = canon.Bytes()
	r.checkNS = int64(time.Since(t2))
	return r, nil
}
