package service

import (
	"fmt"

	"snappif/internal/core"
	"snappif/internal/engine"
	"snappif/internal/fault"
	"snappif/internal/sim"
)

// pendingReq is an admitted-but-not-started request in a lane's queue.
type pendingReq struct {
	kind     Kind
	enqueueT int64 // requested arrival tick (latency is measured from here)
	wallNS   int64 // wall reading at enqueue (0 when Clock is nil)
}

// lane is one initiator's protocol instance: a private configuration and
// kernel rooted at the initiator, an engine-specific runner, the admission
// queue, and the wave-lifecycle observer that turns root phase transitions
// into the report's wave records.
//
// Admission never touches guards: the gate (a schedule filter) withholds
// the root's B-action while pending is empty, and the serving loop parks
// the lane once it has quiesced down to exactly that withheld broadcast.
// The lifecycle observer reads the root's phase after every committed step:
//
//	C→B   wave start: the queue head becomes the in-flight request and
//	      selects the wave's aggregation fold (all F-actions of the wave
//	      strictly follow the root's B, so switching the fold here is safe)
//	B→F   delivery: the root's Agg register is the response
//	B→F with nothing in flight: an abnormal-residue wave from a corrupted
//	      start — counted, not billed to any request
//	B→C   (B-correction) with a wave in flight: the start was swallowed by
//	      the stabilization machinery; the request is re-queued
type lane struct {
	idx  int
	root int

	kind     Kind // the in-flight (or last) wave's fold selector
	pending  []pendingReq
	inflight *pendingReq
	startT   int64 // in-flight wave's root-B tick

	prevPhase core.Phase
	tick      int64 // the lane's current tick, for the observer
	rep       *Report
	clock     func() int64 // nil = deterministic run, wall latencies omitted

	eng laneEngine
}

// laneEngine drives the lane's runner for the serving loop: one
// synchronous step per tick on sim and flat, wake-queue batches on event.
type laneEngine interface {
	engine.Runner
	// advance runs the lane's schedule up to tick t, calling the lane's
	// observe after every committed step.
	advance(t int64) error
	// parked reports quiescence modulo the withheld root broadcast. The
	// serving loop treats a parked lane as asleep until an enqueue: a
	// parked lane has no pending schedule work (a parked event lane's
	// wake queue is empty), so only an arrival can wake it.
	parked() bool
	// wake re-arms the schedule after a closed→open gate transition at
	// tick t (the event engine's lost-wakeup cure; a no-op for the
	// synchronous engines, whose serving loop re-polls parked()).
	wake(t int64)
}

// gateOpen is the admission predicate: the root broadcast is admitted only
// while a request is queued.
func (ln *lane) gateOpen() bool { return len(ln.pending) > 0 }

// admit is the (proc, action) admission gate the engine seam applies.
func (ln *lane) admit(p int, a int) bool {
	return p != ln.root || a != core.ActionB || ln.gateOpen()
}

// enqueue admits a request; on the closed→open transition it wakes the
// engine at the current tick.
func (ln *lane) enqueue(k Kind, enqueueT, wallNS, tick int64) {
	wasOpen := ln.gateOpen()
	ln.pending = append(ln.pending, pendingReq{kind: k, enqueueT: enqueueT, wallNS: wallNS})
	if !wasOpen {
		ln.eng.wake(tick)
	}
}

// parked: no admitted work and the engine quiesced.
func (ln *lane) parked() bool { return ln.inflight == nil && !ln.gateOpen() && ln.eng.parked() }

// advance drives the engine to tick t with lifecycle observation.
func (ln *lane) advance(t int64) error {
	ln.tick = t
	return ln.eng.advance(t)
}

// observe translates root phase transitions into wave lifecycle events; it
// runs after every committed step of the lane's engine.
func (ln *lane) observe() error {
	root := ln.eng.State(ln.root)
	cur := root.Pif
	prev := ln.prevPhase
	if cur == prev {
		return nil
	}
	ln.prevPhase = cur
	switch {
	case prev != core.B && cur == core.B:
		// Wave start. The gate admitted the broadcast, so the queue must
		// hold its request; anything else is a gate leak.
		if len(ln.pending) == 0 {
			return fmt.Errorf("gate leak: root broadcast with no pending request")
		}
		req := ln.pending[0]
		ln.pending = ln.pending[1:]
		ln.inflight = &req
		ln.kind = req.kind
		ln.startT = ln.tick
	case prev == core.B && cur == core.F:
		if ln.inflight == nil {
			// Feedback-complete on a wave this server never started: the
			// corrupted start's residue collapsing.
			ln.rep.Residue++
			return nil
		}
		req := ln.inflight
		ln.inflight = nil
		var wall int64
		if ln.clock != nil {
			wall = ln.clock() - req.wallNS
		}
		ln.rep.record(Wave{
			Lane:     ln.idx,
			Kind:     req.kind.String(),
			Msg:      root.Msg,
			Resp:     root.Agg,
			EnqueueT: req.enqueueT,
			StartT:   ln.startT,
			DoneT:    ln.tick,
			WallNS:   wall,
		})
	case prev == core.B && cur == core.C:
		// Root B-correction mid-wave: only reachable from corrupted
		// neighborhoods. Re-queue the swallowed request at the head.
		if ln.inflight != nil {
			req := *ln.inflight
			ln.inflight = nil
			ln.rep.Aborts++
			ln.pending = append([]pendingReq{req}, ln.pending...)
			ln.eng.wake(ln.tick)
		}
	}
	return nil
}

// newLane builds one initiator's instance: protocol rooted at root with the
// lane's fold-dispatching Combine, deterministic per-processor values,
// optional fault corruption, and the engine's runner.
func newLane(opts *Options, idx, root int, faultName string) (*lane, error) {
	ln := &lane{idx: idx, root: root, clock: opts.Clock}
	seed := opts.laneSeed(idx)

	// The fold dispatches on the lane's in-flight kind. All F-actions of a
	// wave run strictly after the root B that set ln.kind, so the closure
	// always sees the right wave's fold.
	combine := func(acc, child int64) int64 { return ln.kind.fold(acc, child) }
	// Per-lane message base: wave j of lane l broadcasts base(l)+j, making
	// payloads globally unique and lane-attributable.
	msgBase := (uint64(idx) + 1) << 32

	pr, err := core.New(opts.Graph, root, core.WithCombine(combine), core.WithFirstMsg(msgBase))
	if err != nil {
		return nil, err
	}
	cfg := sim.NewConfiguration(opts.Graph, pr)
	for p := 0; p < cfg.N(); p++ {
		cfg.States[p].(*core.State).Val = valOf(p)
	}
	inj, _ := fault.ByName(faultName) // validated by New
	inj.Apply(cfg, pr, newRNG(seed))

	r, err := engine.New(engine.Spec{
		Engine: opts.Engine,
		Proto:  pr,
		Config: cfg,
		Daemon: sim.Synchronous{},
		Options: sim.Options{
			Seed:     seed,
			MaxSteps: 1 << 30,
			// The induced/filtered schedules are intrinsically fair for
			// this protocol; fairness forcing would bypass the admission
			// gate.
			FairnessAge: 1 << 30,
		},
		Latency: opts.Latency,
		Gate:    ln.admit,
	})
	if err != nil {
		return nil, err
	}
	if wr, ok := r.(wakeRunner); ok {
		ln.eng = &eventLane{wakeRunner: wr, ln: ln}
	} else {
		ln.eng = &syncLane{Runner: r, ln: ln}
	}
	ln.prevPhase = ln.eng.State(root).Pif
	return ln, nil
}

// syncLane runs a lane on a synchronous engine (sim or flat): one
// synchronous step per tick, the gate filtering the root's broadcast out
// of the selection.
type syncLane struct {
	engine.Runner
	ln *lane
}

func (e *syncLane) advance(int64) error {
	if e.parked() {
		return nil
	}
	done, err := e.Step()
	if err != nil {
		return err
	}
	if done {
		return nil // terminal configurations park trivially
	}
	return e.ln.observe()
}

func (e *syncLane) parked() bool {
	n := e.EnabledCount()
	if n == 0 {
		return true
	}
	if e.ln.gateOpen() || n != 1 {
		return false
	}
	return e.EnabledAction(e.ln.root) == core.ActionB
}

func (e *syncLane) wake(int64) {} // the serving loop re-polls parked()

// wakeRunner is the event engine's serving surface: its schedule is a
// virtual-time wake queue the lane drains up to each tick of its loop.
type wakeRunner interface {
	engine.Runner
	ServeStep(limit int64) (progressed bool, err error)
	Idle() bool
	Wake(p int, at int64) int64
}

// eventLane runs a lane on the discrete-event engine: drain every effective
// wake batch up to the tick.
type eventLane struct {
	wakeRunner
	ln *lane
}

func (e *eventLane) advance(t int64) error {
	for {
		progressed, err := e.ServeStep(t)
		if err != nil {
			return err
		}
		if !progressed {
			return nil
		}
		if err := e.ln.observe(); err != nil {
			return err
		}
	}
}

func (e *eventLane) parked() bool { return e.Idle() }
func (e *eventLane) wake(t int64) { e.Wake(e.ln.root, t) }
