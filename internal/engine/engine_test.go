package engine_test

import (
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"snappif/internal/core"
	"snappif/internal/engine"
	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/hunt"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

func ring(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEveryNameBuildsAndSteps: each engine name builds a runner on ring:8
// through New, steps it, and agrees with the others on the result (the
// engines are bit-identical under an external daemon). Unknown names —
// "generic", the sim engine's old name, included — fail with an error that
// lists every valid name.
func TestEveryNameBuildsAndSteps(t *testing.T) {
	g := ring(t, 8)
	var wantRes *sim.Result
	var wantStates []core.State
	for _, name := range engine.Names() {
		if err := engine.Validate(name); err != nil {
			t.Fatal(err)
		}
		r, err := engine.New(engine.Spec{
			Engine:  name,
			Proto:   core.MustNew(g, 0),
			Graph:   g,
			Daemon:  sim.DistributedRandom{P: 0.5},
			Options: sim.Options{Seed: 3, MaxSteps: 200},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.EnabledCount() != 1 || r.EnabledAction(0) != core.ActionB || r.EnabledAction(1) != -1 {
			t.Fatalf("%s: clean start has %d enabled, root action %d", name, r.EnabledCount(), r.EnabledAction(0))
		}
		for i := 0; i < 50; i++ {
			if done, err := r.Step(); done {
				t.Fatalf("%s: run ended at step %d: %v", name, i, err)
			}
		}
		res := r.Result()
		res.Final = nil // flat and event materialize it only at the end
		states := make([]core.State, g.N())
		for p := range states {
			states[p] = r.State(p)
		}
		if wantRes == nil {
			wantRes, wantStates = &res, states
			continue
		}
		if !reflect.DeepEqual(*wantRes, res) {
			t.Fatalf("%s: result %+v differs from %s's %+v", name, res, engine.Sim, *wantRes)
		}
		if !reflect.DeepEqual(wantStates, states) {
			t.Fatalf("%s: states %+v differ from %s's %+v", name, states, engine.Sim, wantStates)
		}
	}
	for _, bad := range []string{"generic", "", "flat-sharded", "Sim"} {
		err := engine.Validate(bad)
		if err == nil {
			t.Fatalf("Validate(%q) accepted", bad)
		}
		for _, name := range engine.Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("Validate(%q) error %q does not list %q", bad, err, name)
			}
		}
		if _, err := engine.New(engine.Spec{Engine: bad, Proto: core.MustNew(g, 0), Graph: g, Daemon: sim.Synchronous{}}); err == nil {
			t.Fatalf("New accepted engine %q", bad)
		}
	}
}

// TestRunAgreesAcrossEngines: Run drives every engine to the same stop,
// including event in latency mode (a different schedule, still a
// legal run) and sim with telemetry wired through its observer.
func TestRunAgreesAcrossEngines(t *testing.T) {
	g := ring(t, 8)
	stop := func(rs *sim.RunState) bool { return rs.Steps >= 40 }
	var first sim.Result
	for i, name := range engine.Names() {
		tel := telemetry.New(telemetry.Config{})
		res, err := engine.Run(engine.Spec{
			Engine:    name,
			Proto:     core.MustNew(g, 0),
			Graph:     g,
			Daemon:    sim.Synchronous{},
			Options:   sim.Options{Seed: 1, StopWhen: stop},
			Telemetry: tel,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if steps, _ := tel.Totals(); steps != 40 {
			t.Fatalf("%s: telemetry saw %d steps, want 40", name, steps)
		}
		if i == 0 {
			first = res
		} else if res.Moves != first.Moves || res.Rounds != first.Rounds {
			t.Fatalf("%s: moves/rounds %d/%d, %s %d/%d", name, res.Moves, res.Rounds, engine.Sim, first.Moves, first.Rounds)
		}
	}
	lat, err := event.ParseLatency("uniform:1-3")
	if err != nil {
		t.Fatal(err)
	}
	clock := new(event.VirtualClock)
	if _, err := engine.Run(engine.Spec{
		Engine: engine.Event, Proto: core.MustNew(g, 0), Graph: g,
		Options: sim.Options{Seed: 1, StopWhen: stop}, Latency: lat, VClock: clock,
	}); err != nil {
		t.Fatal(err)
	}
	if clock.Now() < 40 {
		t.Fatalf("virtual clock at %d after 40 latency-mode steps", clock.Now())
	}
}

// TestStartConfiguration: a Config start is stepped in place by sim and
// copied by flat and event; every engine reads the same states back.
func TestStartConfiguration(t *testing.T) {
	g := ring(t, 6)
	for _, name := range engine.Names() {
		pr := core.MustNew(g, 0)
		cfg := sim.NewConfiguration(g, pr)
		s := core.At(cfg, 3)
		s.Val = 42
		core.Set(cfg, 3, s)
		r, err := engine.New(engine.Spec{Engine: name, Proto: pr, Config: cfg, Daemon: sim.Synchronous{}})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.State(3).Val; got != 42 {
			t.Fatalf("%s: State(3).Val = %d, want 42", name, got)
		}
	}
}

// TestGate: the seam applies the admission gate on every engine — the
// withheld root broadcast never executes — and refuses to Run a gated
// schedule, which can park without terminating.
func TestGate(t *testing.T) {
	g := ring(t, 8)
	noBroadcast := func(p, a int) bool { return p != 0 || a != core.ActionB }
	for _, name := range engine.Names() {
		// A corrupted start gives the gated run something to do.
		pr := core.MustNew(g, 0)
		cfg := sim.NewConfiguration(g, pr)
		s := core.At(cfg, 4)
		s.Pif, s.Par, s.L = core.B, 3, 2
		core.Set(cfg, 4, s)
		r, err := engine.New(engine.Spec{
			Engine: name, Proto: pr, Config: cfg, Daemon: sim.Synchronous{},
			Options: sim.Options{Seed: 1, MaxSteps: 1 << 20, FairnessAge: 1 << 30},
			Gate:    noBroadcast,
		})
		if err != nil {
			t.Fatal(err)
		}
		rootBefore := r.State(0)
		for i := 0; i < 1000; i++ {
			if r.EnabledCount() == 1 && r.EnabledAction(0) == core.ActionB {
				break // parked on the withheld broadcast
			}
			if done, err := r.Step(); done || err != nil {
				t.Fatalf("%s: gated run ended: %v", name, err)
			}
		}
		if r.EnabledCount() != 1 || r.EnabledAction(0) != core.ActionB {
			t.Fatalf("%s: did not quiesce to the withheld broadcast (%d enabled)", name, r.EnabledCount())
		}
		if root := r.State(0); root != rootBefore {
			t.Fatalf("%s: gated root moved: %+v, started %+v", name, root, rootBefore)
		}
		if _, err := engine.Run(engine.Spec{Engine: name, Proto: pr, Graph: g, Daemon: sim.Synchronous{}, Gate: noBroadcast}); err == nil {
			t.Fatalf("%s: Run accepted a gated schedule", name)
		}
	}
}

// TestGateEmptiedSchedulePanics: stepping a schedule whose every choice is
// withheld is a caller bug the gate reports loudly instead of letting the
// runner fall back to a random, gate-bypassing pick.
func TestGateEmptiedSchedulePanics(t *testing.T) {
	g := ring(t, 4)
	for _, name := range []string{engine.Sim, engine.Flat} {
		r, err := engine.New(engine.Spec{
			Engine: name, Proto: core.MustNew(g, 0), Graph: g, Daemon: sim.Synchronous{},
			Gate: func(p, a int) bool { return false },
		})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: stepping a fully gated schedule did not panic", name)
				}
			}()
			_, _ = r.Step()
		}()
	}
}

// TestGateNonSynchronousMatchesSim: under daemons that draw from the RNG,
// flat's in-runner gate filter selects exactly what sim's gateDaemon does —
// same draws, same filtered moves, same fairness forcing after the filter.
// Driven like a serving lane (the root's broadcast is admitted only once the
// run has parked on it), the two engines agree on every State and Result
// after each Step, and both panic at the same steps: those where the
// daemon's pick is all withheld.
func TestGateNonSynchronousMatchesSim(t *testing.T) {
	g := ring(t, 24)
	daemons := []sim.Daemon{
		sim.DistributedRandom{P: 0.5},
		sim.Central{Order: sim.CentralRandom},
		sim.Central{Order: sim.CentralLowestID},
	}
	totalRefused := 0
	for _, d := range daemons {
		for _, age := range []int{1 << 30, 6} {
			open := false
			var rs [2]engine.Runner
			for i, name := range []string{engine.Sim, engine.Flat} {
				pr := core.MustNew(g, 0)
				cfg := sim.NewConfiguration(g, pr)
				fault.UniformRandom().Apply(cfg, pr, rand.New(rand.NewSource(9)))
				r, err := engine.New(engine.Spec{
					Engine: name, Proto: pr, Config: cfg, Daemon: d,
					Options: sim.Options{Seed: 5, MaxSteps: 1 << 20, FairnessAge: age},
					Gate:    func(p, a int) bool { return open || p != 0 || a != core.ActionB },
				})
				if err != nil {
					t.Fatal(err)
				}
				rs[i] = r
			}
			label := d.Name() + "/age=" + strconv.Itoa(age)
			step := func(r engine.Runner) (panicked bool) {
				defer func() { panicked = recover() != nil }()
				if done, err := r.Step(); done || err != nil {
					t.Fatalf("%s: gated run ended: %v", label, err)
				}
				return false
			}
			sr, fr := rs[0], rs[1]
			committed, refused := 0, 0
			for steps := 0; steps < 400; steps++ {
				open = sr.EnabledCount() == 1 && sr.EnabledAction(0) == core.ActionB
				sp, fp := step(sr), step(fr)
				if sp != fp {
					t.Fatalf("%s step %d: sim panicked=%v, flat panicked=%v", label, steps, sp, fp)
				}
				if sp {
					// The panic fires after the daemon's draws and before
					// any write, so the lockstep goes on from the same
					// state and RNG position.
					refused++
					continue
				}
				committed++
				for p := 0; p < g.N(); p++ {
					if s, f := sr.State(p), fr.State(p); s != f {
						t.Fatalf("%s step %d: proc %d sim %+v, flat %+v", label, steps, p, s, f)
					}
				}
				s, f := sr.Result(), fr.Result()
				s.Final, f.Final = nil, nil // flat materializes it only at the end
				if !reflect.DeepEqual(s, f) {
					t.Fatalf("%s step %d: Result sim %+v, flat %+v", label, steps, s, f)
				}
			}
			if committed < 100 {
				t.Fatalf("%s: lockstep committed only %d steps (%d refused)", label, committed, refused)
			}
			totalRefused += refused
		}
	}
	if totalRefused == 0 {
		t.Fatal("no daemon ever picked only the withheld broadcast; the panic path went untested")
	}
}

// TestSpecErrors: the seam rejects what an engine cannot run.
func TestSpecErrors(t *testing.T) {
	g := ring(t, 5)
	pr := core.MustNew(g, 0)
	plant, ok := hunt.PlantByName("level-overflow")
	if !ok {
		t.Fatal("plant level-overflow missing")
	}
	planted := plant.Wrap(pr)
	cases := map[string]engine.Spec{
		"no config or graph":   {Engine: engine.Sim, Proto: pr, Daemon: sim.Synchronous{}},
		"flat with a plant":    {Engine: engine.Flat, Proto: planted, Graph: g, Daemon: sim.Synchronous{}},
		"event with a plant":   {Engine: engine.Event, Proto: planted, Graph: g, Daemon: sim.Synchronous{}},
		"sim telemetry, plant": {Engine: engine.Sim, Proto: planted, Graph: g, Daemon: sim.Synchronous{}, Telemetry: telemetry.New(telemetry.Config{})},
		"event without daemon": {Engine: engine.Event, Proto: pr, Graph: g},
	}
	for name, spec := range cases {
		if _, err := engine.New(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A latency schedule is event's alone: sim and flat refuse it loudly
	// instead of dropping it, and the error points at event.
	for _, name := range []string{engine.Sim, engine.Flat} {
		for field, spec := range map[string]engine.Spec{
			"Latency": {Engine: name, Proto: pr, Graph: g, Daemon: sim.Synchronous{}, Latency: event.Constant(1)},
			"VClock":  {Engine: name, Proto: pr, Graph: g, Daemon: sim.Synchronous{}, VClock: new(event.VirtualClock)},
		} {
			_, err := engine.New(spec)
			if err == nil || !strings.Contains(err.Error(), engine.Event) {
				t.Errorf("%s with a %s: err = %v, want an error naming %q", name, field, err, engine.Event)
			}
		}
	}
	// A planted protocol still runs on sim.
	if _, err := engine.New(engine.Spec{Engine: engine.Sim, Proto: planted, Graph: g, Daemon: sim.Synchronous{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(engine.Spec{Engine: "generic", Proto: pr, Graph: g, Daemon: sim.Synchronous{}}); err == nil {
		t.Fatal("Run accepted an unknown engine")
	}
	// Step-limit errors pass through the seam unchanged.
	_, err := engine.Run(engine.Spec{Engine: engine.Flat, Proto: pr, Graph: g, Daemon: sim.Synchronous{}, Options: sim.Options{MaxSteps: 5}})
	if !errors.Is(err, sim.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

// TestServeMethodsNeedAWakeQueue: only an event runner in latency mode —
// the one with a wake queue — offers the serving methods; flat and a
// daemon-driven event run expose Runner alone.
func TestServeMethodsNeedAWakeQueue(t *testing.T) {
	type server interface {
		ServeStep(limit int64) (bool, error)
		Idle() bool
		Wake(p int, at int64) int64
	}
	g := ring(t, 6)
	for _, c := range []struct {
		name  string
		spec  engine.Spec
		serve bool
	}{
		{"flat", engine.Spec{Engine: engine.Flat, Daemon: sim.Synchronous{}}, false},
		{"gated flat", engine.Spec{Engine: engine.Flat, Daemon: sim.Synchronous{}, Gate: func(p, a int) bool { return true }}, false},
		{"event daemon", engine.Spec{Engine: engine.Event, Daemon: sim.Synchronous{}}, false},
		{"event latency", engine.Spec{Engine: engine.Event, Latency: event.Constant(1)}, true},
		{"gated event", engine.Spec{Engine: engine.Event, Daemon: sim.Synchronous{}, Gate: func(p, a int) bool { return true }}, true},
	} {
		c.spec.Proto, c.spec.Graph = core.MustNew(g, 0), g
		r, err := engine.New(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, ok := r.(server); ok != c.serve {
			t.Errorf("%s: serving methods exposed = %v, want %v", c.name, ok, c.serve)
		}
	}
}

// TestEngineZeroAllocsPerStep: stepping through the seam's Runner interface
// keeps every engine's zero-allocations-per-step contract, and so does the
// serving configuration — flat under the synchronous daemon with a lane's
// admission gate, which withholds the root's broadcast until the run has
// parked on it, as a lane does until a request is queued.
func TestEngineZeroAllocsPerStep(t *testing.T) {
	g := ring(t, 64)
	type input struct {
		name string
		spec engine.Spec
	}
	var inputs []input
	for _, name := range engine.Names() {
		inputs = append(inputs, input{name, engine.Spec{
			Engine: name, Daemon: sim.DistributedRandom{P: 0.5},
			Options: sim.Options{Seed: 1, MaxSteps: 1 << 30},
		}})
	}
	open := false
	inputs = append(inputs, input{"serving flat", engine.Spec{
		Engine: engine.Flat, Daemon: sim.Synchronous{},
		Options: sim.Options{Seed: 1, MaxSteps: 1 << 30, FairnessAge: 1 << 30},
		Gate:    func(p, a int) bool { return open || p != 0 || a != core.ActionB },
	}})
	for _, in := range inputs {
		in.spec.Proto, in.spec.Graph = core.MustNew(g, 0), g
		r, err := engine.New(in.spec)
		if err != nil {
			t.Fatal(err)
		}
		step := func() (bool, error) {
			open = r.EnabledCount() == 1 && r.EnabledAction(0) == core.ActionB
			return r.Step()
		}
		for i := 0; i < 2000; i++ {
			step()
		}
		allocs := testing.AllocsPerRun(200, func() {
			if done, err := step(); done {
				t.Fatalf("%s: run ended mid-measurement: %v", in.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Step through the seam allocates %.2f objects/step, want 0", in.name, allocs)
		}
	}
}
