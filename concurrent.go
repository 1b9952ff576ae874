package snappif

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/obs"
	rt "snappif/internal/runtime"
	"snappif/internal/sim"
)

// ConcurrentResult reports a concurrent (goroutine-per-processor) run.
type ConcurrentResult struct {
	// Waves lists per-wave delivery counts.
	Waves []ConcurrentWave
	// Moves counts all action executions across the run.
	Moves int64
	// MovesPerProc counts action executions per processor — the Go
	// scheduler's fairness profile.
	MovesPerProc []int64
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
}

// ConcurrentWave is one PIF cycle observed during a concurrent run.
type ConcurrentWave struct {
	// Message is the payload the root broadcast.
	Message uint64
	// Delivered and Acknowledged count non-root processors ([PIF1]/[PIF2]
	// require N-1 each).
	Delivered    int
	Acknowledged int
}

// ConcurrentOptions configures RunConcurrent.
type ConcurrentOptions struct {
	// Corrupt, if non-zero, corrupts the initial configuration.
	Corrupt Corruption
	// Seed seeds the corruption (default 1).
	Seed int64
	// Timeout bounds the wall-clock duration (default 30s).
	Timeout time.Duration
	// EventTrace, if non-nil, receives the structured JSONL event trace of
	// the run: the header, the causally ordered per-action events (kind
	// "action", globally sequenced under the actors' neighborhood locks),
	// and the totals summary. Unlike simulator traces, action order here is
	// scheduler-dependent — piftrace diff ignores action events for that
	// reason.
	EventTrace io.Writer
}

// RunConcurrent executes the protocol with real concurrency — one
// goroutine per processor sharing state under neighborhood locking, the Go
// scheduler acting as the (locally central, weakly fair) daemon — until the
// root completes the requested number of waves.
func RunConcurrent(topo Topology, root, waves int, opts ConcurrentOptions) (ConcurrentResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	var corrupt func(*sim.Configuration, *core.Protocol)
	if opts.Corrupt != 0 {
		inj, err := injectorFor(opts.Corrupt)
		if err != nil {
			return ConcurrentResult{}, err
		}
		rng := rand.New(rand.NewSource(opts.Seed))
		corrupt = func(c *sim.Configuration, pr *core.Protocol) { inj.Apply(c, pr, rng) }
	}
	rtOpts := rt.Options{Corrupt: corrupt, Timeout: opts.Timeout}
	tracer := obs.Disabled()
	if opts.EventTrace != nil {
		proto, err := core.New(topo.g, root)
		if err != nil {
			return ConcurrentResult{}, err
		}
		tracer = obs.New(opts.EventTrace, proto)
		tracer.BeginRun(topo.g, "go-scheduler", opts.Seed, nil)
		rtOpts.OnAction = tracer.Action
	}
	res, err := rt.Run(topo.g, root, waves, rtOpts)
	if cerr := tracer.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ConcurrentResult{}, err
	}
	out := ConcurrentResult{Moves: res.Moves, MovesPerProc: res.MovesPerProc, Elapsed: res.Elapsed}
	for _, cs := range res.Cycles {
		out.Waves = append(out.Waves, ConcurrentWave{
			Message:      cs.Msg,
			Delivered:    cs.Delivered,
			Acknowledged: cs.Acked,
		})
	}
	return out, nil
}

// injectorFor maps a public Corruption to its fault injector.
func injectorFor(kind Corruption) (fault.Injector, error) {
	switch kind {
	case CorruptUniform:
		return fault.UniformRandom(), nil
	case CorruptPartial:
		return fault.PartialRandom(0.5), nil
	case CorruptPhantomTree:
		return fault.PhantomTree(), nil
	case CorruptPrematureFok:
		return fault.PrematureFok(), nil
	case CorruptInflatedCounts:
		return fault.InflatedCounts(), nil
	case CorruptStaleFeedback:
		return fault.StaleFeedback(), nil
	case CorruptMaxLevels:
		return fault.MaxLevels(), nil
	case CorruptStaleRegion:
		return fault.StaleRegion(), nil
	default:
		return fault.Injector{}, fmt.Errorf("snappif: unknown corruption %d", kind)
	}
}
