// Package engine is the one place that turns an engine name into a running
// runner. The paper defines one model — guarded actions under a weakly fair
// distributed daemon — and the repository has three schedulers for it:
//
//	sim    the interface-based reference runner (internal/sim) over boxed
//	       states; runs any sim.Protocol, planted variants included
//	flat   the struct-of-arrays kernel (internal/flat) for large N, stepped
//	       by the event runner in external-daemon mode
//	event  the discrete-event scheduler (internal/event) over flat's
//	       kernel: daemon-driven, or self-scheduled from per-link latencies
//
// Under an external daemon the three are bit-identical — same moves,
// rounds, RNG draws and traces (the differential tests in internal/flat and
// internal/event) — so callers pick one by name, validate the name with
// Validate, build it with New, and program against Runner. flat and a
// daemon-driven event run are one code path; they differ only in the
// engine name telemetry records. Nothing outside this package and the
// engines themselves constructs an engine runner.
package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// The engine names.
const (
	Sim   = "sim"
	Flat  = "flat"
	Event = "event"
)

// Names returns the engine names in the order help texts list them.
func Names() []string { return []string{Sim, Flat, Event} }

// List renders the names for flag help texts and errors.
const List = Sim + ", " + Flat + ", or " + Event

// Validate reports an error naming the valid engines unless name is one.
func Validate(name string) error {
	if slices.Contains(Names(), name) {
		return nil
	}
	return fmt.Errorf("unknown engine %q (want %s)", name, List)
}

// Spec is everything a run needs, shared by all three engines.
type Spec struct {
	// Engine names the scheduler: Sim, Flat, or Event.
	Engine string
	// Proto is the protocol to run. flat and event re-implement the paper's
	// protocol as a kernel, so they need a *core.Protocol; sim runs any
	// sim.Protocol.
	Proto sim.Protocol
	// Config is the start configuration; nil starts from Proto's initial
	// states on Graph. sim steps it in place, flat and event step a copy:
	// read a run's states through Runner.State.
	Config *sim.Configuration
	// Graph is the network when Config is nil.
	Graph *graph.Graph
	// Daemon schedules the run (unused by event in latency mode).
	Daemon sim.Daemon
	// Options are the run options every engine shares.
	Options sim.Options
	// Latency, for event only, replaces the daemon with the per-link
	// latency schedule; nil keeps the daemon-driven mode. New rejects it
	// on sim and flat.
	Latency event.Latency
	// VClock, for event only, receives the run's virtual time after every
	// committed step. New rejects it on sim and flat.
	VClock *event.VirtualClock
	// Telemetry, when non-nil, receives the per-step hooks; sim feeds it
	// through a telemetry.Observer, so it needs a *core.Protocol too.
	Telemetry *telemetry.Telemetry
	// TelemetryMeta labels the run; unset G, Engine, Daemon and NextMsg
	// are filled in.
	TelemetryMeta telemetry.RunMeta
	// Gate, when non-nil, withholds every enabled choice (p, a) it rejects
	// from the schedule: a filtering daemon on sim, event.Options.Gate on
	// flat (filtering the daemon's selection) and on event (the wake-queue
	// gate). A gated event runner always runs in latency mode (nil Latency
	// means event.Constant(1)). A gated runner must never be stepped once
	// every enabled choice is withheld, and Options.FairnessAge must exceed
	// the run's horizon, or fairness forcing would bypass the gate.
	Gate func(p, a int) bool
}

// Runner is a built run, whichever engine steps it.
type Runner interface {
	// Step executes one computation step and Result summarizes the run so
	// far, with sim.Runner's contract.
	sim.Stepper
	// Enabled returns a copy of the enabled choices in ascending processor
	// order.
	Enabled() []sim.Choice
	// EnabledCount returns the number of enabled processors.
	EnabledCount() int
	// EnabledAction returns p's enabled action, or -1 when p is disabled
	// (the PIF guards are mutually exclusive: at most one per processor).
	EnabledAction(p int) int
	// State returns p's current state.
	State(p int) core.State
}

// New builds the runner spec names. An event runner in latency mode also
// offers the serving methods ServeStep, Idle and Wake by type
// assertion; every other runner offers Runner alone.
func New(s Spec) (Runner, error) {
	if err := Validate(s.Engine); err != nil {
		return nil, err
	}
	if s.Config == nil && s.Graph == nil {
		return nil, errors.New("engine: Spec needs a Config or a Graph")
	}
	if s.Engine != Event && (s.Latency != nil || s.VClock != nil) {
		return nil, fmt.Errorf("engine: %s has no latency schedule; Latency and VClock need engine %s", s.Engine, Event)
	}
	if s.Engine == Sim {
		return newSim(s)
	}
	pr, ok := s.Proto.(*core.Protocol)
	if !ok {
		return nil, fmt.Errorf("engine: %s runs the paper's protocol (*core.Protocol), not %T", s.Engine, s.Proto)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		return nil, err
	}
	var fc *flat.Config
	if s.Config != nil {
		fc, err = flat.FromSim(s.Config)
	} else {
		fc, err = flat.NewConfig(k)
	}
	if err != nil {
		return nil, err
	}
	opts := event.Options{
		Options:       s.Options,
		Latency:       s.Latency,
		Telemetry:     s.Telemetry,
		TelemetryMeta: s.TelemetryMeta,
		VClock:        s.VClock,
		Gate:          s.Gate,
	}
	d := s.Daemon
	if s.Engine == Flat {
		// flat is the event runner in external-daemon mode.
		if opts.TelemetryMeta.Engine == "" {
			opts.TelemetryMeta.Engine = Flat
		}
	} else if s.Gate != nil && opts.Latency == nil {
		opts.Latency = event.Constant(1)
	}
	if opts.Latency != nil {
		d = nil // latency mode schedules itself
	}
	r, err := event.NewRunner(fc, k, d, opts)
	if err != nil {
		return nil, err
	}
	er := &eventRunner{Runner: r, c: fc}
	if opts.Latency == nil {
		// No wake queue to serve from: hide the serving methods.
		return daemonRunner{er}, nil
	}
	return er, nil
}

// Run builds the runner and steps it until the run ends. A gated schedule
// can park without terminating, so Run rejects a Gate.
func Run(s Spec) (sim.Result, error) {
	if s.Gate != nil {
		return sim.Result{}, errors.New("engine: Run does not support a gated schedule; step the Runner")
	}
	r, err := New(s)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Drive(r)
}

// newSim builds the reference runner, wiring telemetry as an observer.
func newSim(s Spec) (Runner, error) {
	cfg := s.Config
	if cfg == nil {
		cfg = sim.NewConfiguration(s.Graph, s.Proto)
	}
	d := s.Daemon
	if s.Gate != nil {
		d = &gateDaemon{inner: d, admit: s.Gate}
	}
	opts := s.Options
	if s.Telemetry.Enabled() {
		pr, ok := s.Proto.(*core.Protocol)
		if !ok {
			return nil, fmt.Errorf("engine: telemetry needs the paper's protocol (*core.Protocol), not %T", s.Proto)
		}
		meta := s.TelemetryMeta
		if meta.G == nil {
			meta.G = cfg.G
		}
		if meta.Engine == "" {
			meta.Engine = Sim
		}
		if meta.Daemon == "" {
			meta.Daemon = d.Name()
		}
		if meta.NextMsg == nil {
			meta.NextMsg = pr.NextMsg
		}
		meta.Root = pr.Root
		to := &telemetry.Observer{T: s.Telemetry, Proto: pr}
		to.Begin(meta, cfg)
		opts.Observers = append(slices.Clip(opts.Observers), to)
	}
	return &simRunner{Runner: sim.NewRunner(cfg, s.Proto, d, opts), c: cfg}, nil
}

// gateDaemon filters the inner daemon's selection through the admission
// gate on sim. Flat and event filter inside the event runner, whose
// selectChoices is this filter's twin: same rule, same panic. Filtering
// happens after the inner daemon drew its choices, so the RNG draw
// sequence is the inner daemon's own.
type gateDaemon struct {
	inner sim.Daemon
	admit func(p, a int) bool
}

func (d *gateDaemon) Name() string { return "gate(" + d.inner.Name() + ")" }

func (d *gateDaemon) Select(step int, c *sim.Configuration, enabled []sim.Choice, rng *rand.Rand) []sim.Choice {
	sel := d.inner.Select(step, c, enabled, rng)
	out := sel[:0]
	for _, ch := range sel {
		if d.admit(ch.Proc, ch.Action) {
			out = append(out, ch)
		}
	}
	if len(out) == 0 {
		// Stepping a fully gated schedule is the caller's bug: the runner
		// would fall back to a random pick, silently bypassing the gate.
		panic("gate emptied the schedule; the caller must park instead of stepping")
	}
	return out
}

// simRunner adapts sim.Runner over the boxed configuration it steps.
type simRunner struct {
	*sim.Runner
	c *sim.Configuration
}

func (r *simRunner) State(p int) core.State { return core.At(r.c, p) }

func (r *simRunner) EnabledAction(p int) int {
	if acts := r.EnabledActionsOf(p); len(acts) > 0 {
		return acts[0]
	}
	return -1
}

// eventRunner adapts event.Runner over its struct-of-arrays configuration.
// In latency mode its serving methods (ServeStep, Idle, Wake)
// stay reachable by type assertion.
type eventRunner struct {
	*event.Runner
	c *flat.Config
}

func (r *eventRunner) State(p int) core.State  { return r.c.StateAt(p) }
func (r *eventRunner) EnabledAction(p int) int { return int(r.EnabledActionOf(p)) }

// daemonRunner is an event runner in external-daemon mode — the flat
// engine, or event without latency or gate — narrowed to Runner, so a
// caller probing for the serving methods finds none.
type daemonRunner struct{ Runner }
