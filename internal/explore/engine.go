package explore

import (
	"fmt"
	"math/rand"

	"snappif/internal/core"
	"snappif/internal/engine"
	"snappif/internal/graph"
	"snappif/internal/hunt"
	"snappif/internal/sim"
)

// Engine is one transition oracle over the real implementation: given a
// concrete state vector it reports the engine's enabled choices, and executes
// exactly one forced daemon selection through a real runner. The explorer
// enumerates whatever the engine reports — it never evaluates a guard or
// applies an action itself — so a certification is a statement about the
// engine under test (sim, flat, or event), not about a model of it.
//
// Every Step builds a pristine runner on the engine's scratch configuration:
// ages start at zero, so the weak-fairness forcing never adds a choice and
// the committed step is exactly the requested selection. The successor's
// enabled set is read back from the stepped runner's own guard cache — the
// incremental refresh path included — not recomputed from scratch.
type Engine interface {
	// Name identifies the engine in results ("sim", "flat", or "event").
	Name() string

	// Probe loads states into the scratch configuration and returns the
	// engine's enabled choices without stepping.
	Probe(states []core.State) ([]sim.Choice, error)

	// Step executes exactly sel from states and returns the successor state
	// vector together with the engine's post-step enabled choices. Every
	// choice in sel must be enabled (they come from a previous Probe/Step of
	// the same vector); a selection the engine does not recognize is an
	// error, never a silent substitution.
	Step(states []core.State, sel []sim.Choice) (succ []core.State, enabled []sim.Choice, err error)
}

// forcedDaemon replays one externally chosen selection. Unlike hunt's
// tolerant scheduleDaemon it is strict: a requested choice missing from the
// enabled set marks the step as diverged and the engine reports an error.
type forcedDaemon struct {
	sel  []sim.Choice
	miss bool
	buf  []sim.Choice
}

var _ sim.Daemon = (*forcedDaemon)(nil)

// Name implements sim.Daemon.
func (d *forcedDaemon) Name() string { return "explore-forced" }

// Select implements sim.Daemon: it returns exactly the requested choices
// that the engine reports enabled, flagging any miss.
func (d *forcedDaemon) Select(_ int, _ *sim.Configuration, enabled []sim.Choice, _ *rand.Rand) []sim.Choice {
	d.buf = d.buf[:0]
	for _, want := range d.sel {
		found := false
		for _, ch := range enabled {
			if ch == want {
				found = true
				break
			}
		}
		if !found {
			d.miss = true
			continue
		}
		d.buf = append(d.buf, want)
	}
	return d.buf
}

// engineOptions pins the runner options of a single forced step: the
// fairness bound exceeds the step count so forceAged can never fire even in
// principle, and two steps of budget leave room for the one we take.
func engineOptions() sim.Options {
	return sim.Options{MaxSteps: 2, FairnessAge: 1 << 30}
}

// oracle drives one engine through the engine seam (internal/engine) on a
// boxed scratch configuration: Probe and Step load the vector and build a
// pristine runner from it.
type oracle struct {
	kind   string
	proto  sim.Protocol // possibly plant-wrapped
	cfg    *sim.Configuration
	forced *forcedDaemon
}

// newEngine builds the named engine's oracle. plant, when non-empty, wraps
// the protocol with the named test-only bug (hunt.PlantByName); flat and
// event run only the paper's unmodified protocol, so they reject plants.
func newEngine(kind string, g *graph.Graph, root int, plant string, copts []core.Option) (Engine, error) {
	pr, err := core.New(g, root, copts...)
	if err != nil {
		return nil, err
	}
	var proto sim.Protocol = pr
	if plant != "" {
		pl, ok := hunt.PlantByName(plant)
		if !ok {
			return nil, fmt.Errorf("explore: unknown plant %q", plant)
		}
		proto = pl.Wrap(pr)
	}
	e := &oracle{kind: kind, proto: proto, cfg: sim.NewConfiguration(g, proto), forced: &forcedDaemon{}}
	// Build one runner now, so an unknown engine or a plant the engine
	// cannot run fails here rather than mid-exploration.
	if _, err := e.runner(); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	return e, nil
}

// Name implements Engine.
func (e *oracle) Name() string { return e.kind }

// runner builds a pristine runner on the scratch configuration.
func (e *oracle) runner() (engine.Runner, error) {
	return engine.New(engine.Spec{
		Engine:  e.kind,
		Proto:   e.proto,
		Config:  e.cfg,
		Daemon:  e.forced,
		Options: engineOptions(),
	})
}

// load writes the vector into the scratch configuration's boxes.
func (e *oracle) load(states []core.State) {
	for p := range states {
		*(e.cfg.States[p].(*core.State)) = states[p]
	}
}

// Probe implements Engine.
func (e *oracle) Probe(states []core.State) ([]sim.Choice, error) {
	e.load(states)
	r, err := e.runner()
	if err != nil {
		return nil, fmt.Errorf("explore: %s probe: %w", e.kind, err)
	}
	return r.Enabled(), nil
}

// Step implements Engine.
func (e *oracle) Step(states []core.State, sel []sim.Choice) ([]core.State, []sim.Choice, error) {
	e.load(states)
	e.forced.sel = sel
	e.forced.miss = false
	r, err := e.runner()
	if err != nil {
		return nil, nil, fmt.Errorf("explore: %s step: %w", e.kind, err)
	}
	done, err := r.Step()
	if err != nil {
		return nil, nil, fmt.Errorf("explore: %s step: %w", e.kind, err)
	}
	if e.forced.miss {
		return nil, nil, fmt.Errorf("explore: %s engine does not enable %v", e.kind, sel)
	}
	if done {
		return nil, nil, fmt.Errorf("explore: %s step from %v reported terminal", e.kind, sel)
	}
	succ := make([]core.State, len(states))
	for p := range succ {
		succ[p] = r.State(p)
	}
	return succ, r.Enabled(), nil
}
