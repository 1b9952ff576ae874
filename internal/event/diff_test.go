package event_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snappif/internal/core"
	"snappif/internal/engine"
	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
)

// This file is the event engine's differential oracle, the three-way
// extension of internal/flat's: on every topology × daemon × fault × seed
// combination the grid covers, the event runner in external-daemon mode must
// be *bit-identical* to both the generic sim.Runner and the flat engine —
// same Steps/Moves/Rounds, same MovesPerAction, same final state at every
// processor, same step-limit error, and byte-identical obs JSONL output.
// The flat engine is this runner in the same mode, built through
// internal/engine, so the flat ≡ event leg pins the seam's wiring. In
// latency mode, the induced wake schedule replayed through the other two
// engines (event.InducedDaemon) must reproduce the asynchronous run exactly.

// diffTopologies mirrors the flat oracle's shapes: path, cycle, mesh, hub,
// dense random — all small enough for many (daemon × fault × seed) runs.
func diffTopologies(tb testing.TB) []*graph.Graph {
	tb.Helper()
	var gs []*graph.Graph
	for _, mk := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(7) },
		func() (*graph.Graph, error) { return graph.Ring(9) },
		func() (*graph.Graph, error) { return graph.Grid(3, 4) },
		func() (*graph.Graph, error) { return graph.Star(8) },
		func() (*graph.Graph, error) {
			return graph.RandomConnected(10, 0.35, rand.New(rand.NewSource(11)))
		},
	} {
		g, err := mk()
		if err != nil {
			tb.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// diffDaemons builds one fresh daemon per run; the stateful ones
// (round-robin, adversarial) must not leak schedule state across engines.
func diffDaemons() map[string]func() sim.Daemon {
	return map[string]func() sim.Daemon{
		"synchronous": func() sim.Daemon { return sim.Synchronous{} },
		"central":     func() sim.Daemon { return sim.Central{Order: sim.CentralRandom} },
		"dist-random": func() sim.Daemon { return sim.DistributedRandom{P: 0.5} },
		"loc-central": func() sim.Daemon { return sim.LocallyCentral{} },
		"round-robin": func() sim.Daemon { return &sim.RoundRobin{} },
		"adversarial": func() sim.Daemon {
			return &sim.Adversarial{PreferActions: []int{core.ActionB, core.ActionFok, core.ActionF}}
		},
	}
}

// diffFaults is every registered injector plus the clean start.
func diffFaults() []fault.Injector {
	return append([]fault.Injector{fault.Clean()}, fault.All()...)
}

// runGeneric executes the generic engine from a fresh protocol on g,
// corrupted by inj under the given seed.
func runGeneric(tb testing.TB, g *graph.Graph, inj fault.Injector, mkDaemon func() sim.Daemon, opts sim.Options) (sim.Result, error, *sim.Configuration) {
	tb.Helper()
	pr, err := core.New(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	inj.Apply(cfg, pr, rand.New(rand.NewSource(opts.Seed)))
	res, rerr := sim.Run(cfg, pr, mkDaemon(), opts)
	return res, rerr, cfg
}

// runFlat executes the flat engine, through the engine seam, from an
// identically built start.
func runFlat(tb testing.TB, g *graph.Graph, inj fault.Injector, mkDaemon func() sim.Daemon, opts sim.Options) (sim.Result, error, *sim.Configuration) {
	tb.Helper()
	pr, err := core.New(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	inj.Apply(cfg, pr, rand.New(rand.NewSource(opts.Seed)))
	res, rerr := engine.Run(engine.Spec{Engine: engine.Flat, Proto: pr, Config: cfg, Daemon: mkDaemon(), Options: opts})
	if res.Final == nil {
		tb.Fatalf("flat run did not start: %v", rerr)
	}
	return res, rerr, res.Final
}

// runEvent executes the event engine from an identically built start. A nil
// daemon factory leaves opts.Latency in charge (asynchronous mode).
func runEvent(tb testing.TB, g *graph.Graph, inj fault.Injector, mkDaemon func() sim.Daemon, opts event.Options) (sim.Result, error, *sim.Configuration) {
	tb.Helper()
	pr, err := core.New(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	inj.Apply(cfg, pr, rand.New(rand.NewSource(opts.Seed)))
	fc, err := flat.FromSim(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var d sim.Daemon
	if mkDaemon != nil {
		d = mkDaemon()
	}
	res, rerr := drive(tb, fc, k, d, opts)
	return res, rerr, fc.ToSim()
}

// drive builds an event runner on fc and steps it to the end of the run.
func drive(tb testing.TB, fc *flat.Config, k *flat.Protocol, d sim.Daemon, opts event.Options) (sim.Result, error) {
	tb.Helper()
	r, err := event.NewRunner(fc, k, d, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return sim.Drive(r)
}

func compareResults(t *testing.T, label string, want, got sim.Result) {
	t.Helper()
	if want.Steps != got.Steps {
		t.Errorf("Steps: want %d, %s %d", want.Steps, label, got.Steps)
	}
	if want.Moves != got.Moves {
		t.Errorf("Moves: want %d, %s %d", want.Moves, label, got.Moves)
	}
	if want.Rounds != got.Rounds {
		t.Errorf("Rounds: want %d, %s %d", want.Rounds, label, got.Rounds)
	}
	if want.Terminal != got.Terminal {
		t.Errorf("Terminal: want %v, %s %v", want.Terminal, label, got.Terminal)
	}
	if want.Stopped != got.Stopped {
		t.Errorf("Stopped: want %v, %s %v", want.Stopped, label, got.Stopped)
	}
	if !reflect.DeepEqual(want.MovesPerAction, got.MovesPerAction) {
		t.Errorf("MovesPerAction: want %v, %s %v", want.MovesPerAction, label, got.MovesPerAction)
	}
}

func compareStates(t *testing.T, label string, want, got *sim.Configuration) {
	t.Helper()
	for p := 0; p < want.N(); p++ {
		ws, gs := core.At(want, p), core.At(got, p)
		if ws != gs {
			t.Errorf("proc %d final state: want %+v, %s %+v", p, ws, label, gs)
		}
	}
}

// TestEventMatchesThreeWay is the satellite's differential grid: every
// topology × daemon × fault × seed cell runs all three engines from the same
// start and RNG stream, and every observable of the three runs must agree
// exactly — generic ≡ flat ≡ event.
func TestEventMatchesThreeWay(t *testing.T) {
	const steps = 400
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	for _, g := range diffTopologies(t) {
		for dname, mkDaemon := range diffDaemons() {
			for _, inj := range diffFaults() {
				for _, seed := range []int64{1, 12345} {
					name := fmt.Sprintf("%s/%s/%s/seed=%d", g.Name(), dname, inj.Name, seed)
					t.Run(name, func(t *testing.T) {
						opts := sim.Options{Seed: seed, StopWhen: stop, MaxSteps: steps + 1}
						genRes, genErr, genCfg := runGeneric(t, g, inj, mkDaemon, opts)
						flatRes, flatErr, flatCfg := runFlat(t, g, inj, mkDaemon, opts)
						evtRes, evtErr, evtCfg := runEvent(t, g, inj, mkDaemon, event.Options{Options: opts})
						if (genErr == nil) != (flatErr == nil) || (genErr == nil) != (evtErr == nil) {
							t.Fatalf("error mismatch: generic %v, flat %v, event %v", genErr, flatErr, evtErr)
						}
						compareResults(t, "flat", genRes, flatRes)
						compareStates(t, "flat", genCfg, flatCfg)
						compareResults(t, "event", genRes, evtRes)
						compareStates(t, "event", genCfg, evtCfg)
					})
				}
			}
		}
	}
}

// TestEventTraceByteIdentical runs the generic and event engines with a
// full-mask obs.Tracer and requires the JSONL outputs to be equal byte for
// byte — the strongest form of the bit-identity contract, covering step,
// round, phase, wave, and snapshot events.
func TestEventTraceByteIdentical(t *testing.T) {
	const steps = 300
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	for _, g := range diffTopologies(t) {
		for dname, mkDaemon := range diffDaemons() {
			name := fmt.Sprintf("%s/%s", g.Name(), dname)
			t.Run(name, func(t *testing.T) {
				const seed = int64(42)
				inj := fault.UniformRandom()

				// Generic, traced.
				pr1, err := core.New(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				cfg1 := sim.NewConfiguration(g, pr1)
				inj.Apply(cfg1, pr1, rand.New(rand.NewSource(seed)))
				var buf1 bytes.Buffer
				tr1 := obs.New(&buf1, pr1)
				tr1.BeginRun(g, mkDaemon().Name(), seed, cfg1)
				_, err1 := sim.Run(cfg1, pr1, mkDaemon(), sim.Options{
					Seed: seed, StopWhen: stop, MaxSteps: steps + 1,
					Observers: []sim.Observer{tr1},
				})
				if err1 != nil {
					t.Fatal(err1)
				}
				if err := tr1.Close(); err != nil {
					t.Fatal(err)
				}

				// Event, traced via the mirror configuration.
				pr2, err := core.New(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				k, err := flat.FromCore(pr2)
				if err != nil {
					t.Fatal(err)
				}
				cfg2 := sim.NewConfiguration(g, pr2)
				inj.Apply(cfg2, pr2, rand.New(rand.NewSource(seed)))
				fc, err := flat.FromSim(cfg2)
				if err != nil {
					t.Fatal(err)
				}
				var buf2 bytes.Buffer
				tr2 := obs.New(&buf2, pr2)
				r, err := event.NewRunner(fc, k, mkDaemon(), event.Options{
					Options: sim.Options{
						Seed: seed, StopWhen: stop, MaxSteps: steps + 1,
						Observers: []sim.Observer{tr2},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				tr2.BeginRun(g, mkDaemon().Name(), seed, r.Mirror())
				for {
					done, err := r.Step()
					if done {
						if err != nil {
							t.Fatal(err)
						}
						break
					}
				}
				if err := tr2.Close(); err != nil {
					t.Fatal(err)
				}

				if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
					t.Fatalf("obs traces differ:\ngeneric %d bytes, event %d bytes\nfirst divergence: %s",
						buf1.Len(), buf2.Len(), firstDiffLine(buf1.Bytes(), buf2.Bytes()))
				}
			})
		}
	}
}

// firstDiffLine locates the first differing JSONL line for failure output.
func firstDiffLine(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("trace lengths differ: %d vs %d lines", len(la), len(lb))
}

// TestEventStepLimitError pins the step-limit failure path: the event engine
// in daemon mode must produce the generic engine's error, byte for byte.
func TestEventStepLimitError(t *testing.T) {
	g, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Seed: 3, MaxSteps: 50}
	mk := func() sim.Daemon { return sim.Synchronous{} }
	_, wantErr, _ := runGeneric(t, g, fault.Clean(), mk, opts)
	_, gotErr, _ := runEvent(t, g, fault.Clean(), mk, event.Options{Options: opts})
	if wantErr == nil || gotErr == nil {
		t.Fatalf("expected both engines to hit the step limit: generic %v, event %v", wantErr, gotErr)
	}
	if !errors.Is(gotErr, sim.ErrStepLimit) {
		t.Fatalf("event error = %v, want ErrStepLimit", gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("step-limit errors differ:\ngeneric: %s\nevent:   %s", wantErr, gotErr)
	}
}

// TestEventZeroLatencyMatchesSynchronous pins the degenerate case the design
// promises: with Latency = Constant(0) every enabled processor is woken and
// executed at every tick, which *is* the synchronous daemon — identical
// results and final states, with no daemon involved at all.
func TestEventZeroLatencyMatchesSynchronous(t *testing.T) {
	const steps = 400
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	mk := func() sim.Daemon { return sim.Synchronous{} }
	for _, g := range diffTopologies(t) {
		for _, inj := range diffFaults() {
			name := fmt.Sprintf("%s/%s", g.Name(), inj.Name)
			t.Run(name, func(t *testing.T) {
				opts := sim.Options{Seed: 17, StopWhen: stop, MaxSteps: steps + 1}
				wantRes, wantErr, wantCfg := runFlat(t, g, inj, mk, opts)
				gotRes, gotErr, gotCfg := runEvent(t, g, inj, nil, event.Options{
					Options: opts, Latency: event.Constant(0),
				})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("error mismatch: synchronous %v, zero-latency %v", wantErr, gotErr)
				}
				compareResults(t, "zero-latency", wantRes, gotRes)
				compareStates(t, "zero-latency", wantCfg, gotCfg)
			})
		}
	}
}

// diffLatencies is the latency suite the asynchronous differentials run
// under: degenerate, bounded-uniform, and seedable heavy-tail.
func diffLatencies() []event.Latency {
	return []event.Latency{
		event.Constant(0),
		event.Constant(3),
		event.Uniform{Lo: 1, Hi: 5},
		event.Pareto{Alpha: 1.5, Cap: 16},
	}
}

// TestEventLatencyMatchesInducedDaemon is the asynchronous refinement: an
// event run under a latency distribution and a flat (and generic) run driven
// by event.InducedDaemon — the same wake queue replayed as a sim.Daemon with
// an identical RNG stream — must agree on every observable, traces included.
func TestEventLatencyMatchesInducedDaemon(t *testing.T) {
	const steps = 400
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	for _, g := range diffTopologies(t) {
		for _, lat := range diffLatencies() {
			for _, inj := range []fault.Injector{fault.Clean(), fault.UniformRandom()} {
				name := fmt.Sprintf("%s/%s/%s", g.Name(), lat.Name(), inj.Name)
				t.Run(name, func(t *testing.T) {
					opts := sim.Options{Seed: 23, StopWhen: stop, MaxSteps: steps + 1}
					evtRes, evtErr, evtCfg := runEvent(t, g, inj, nil, event.Options{
						Options: opts, Latency: lat,
					})
					flatRes, flatErr, flatCfg := runFlat(t, g, inj,
						func() sim.Daemon { return event.NewInducedDaemon(lat) }, opts)
					genRes, genErr, genCfg := runGeneric(t, g, inj,
						func() sim.Daemon { return event.NewInducedDaemon(lat) }, opts)
					if (evtErr == nil) != (flatErr == nil) || (evtErr == nil) != (genErr == nil) {
						t.Fatalf("error mismatch: event %v, flat %v, generic %v", evtErr, flatErr, genErr)
					}
					compareResults(t, "flat+induced", evtRes, flatRes)
					compareStates(t, "flat+induced", evtCfg, flatCfg)
					compareResults(t, "generic+induced", evtRes, genRes)
					compareStates(t, "generic+induced", evtCfg, genCfg)
				})
			}
		}
	}
}

// mutObserver is a MutatingObserver used to check the event engine refuses
// configurations it cannot keep mirrored.
type mutObserver struct{}

func (mutObserver) OnStep(int, []sim.Choice, *sim.Configuration) {}
func (mutObserver) MutatesConfiguration() bool                   { return true }

// TestEventRejectsMutatingObserver: mid-run fault injection would desync the
// mirror from the flat state, so NewRunner must reject it loudly instead of
// silently diverging.
func TestEventRejectsMutatingObserver(t *testing.T) {
	g, err := graph.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	_, err = event.NewRunner(fc, k, sim.Synchronous{}, event.Options{
		Options: sim.Options{Observers: []sim.Observer{mutObserver{}}},
	})
	if err == nil {
		t.Fatal("NewRunner accepted a mutating observer")
	}
}

// TestEventRequiresScheduler: a runner with neither a daemon nor a latency
// distribution has no way to pick steps and must be rejected.
func TestEventRequiresScheduler(t *testing.T) {
	g, err := graph.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := event.NewRunner(fc, k, nil, event.Options{}); err == nil {
		t.Fatal("NewRunner accepted a run with neither daemon nor latency")
	}
}
