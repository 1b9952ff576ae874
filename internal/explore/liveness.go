package explore

import (
	"encoding/binary"
	"fmt"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/engine"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// Liveness certification: where Explorer certifies safety (every reachable
// state clean), CertifyLiveness certifies the paper's *round bounds* — the
// liveness half of Theorems 1–4 — against the real engines, exhaustively
// over every central-daemon schedule.
//
// The certified statement is phrased exactly as the theorems are: "the
// target configuration is reached within R rounds". A round, as in the
// paper, completes when every processor that was continuously enabled since
// the round began has executed or been disabled. The certifier explores the
// product of the quotient state with the round-accounting state (the set of
// processors still owed a move this round, plus the index of the round in
// progress); a schedule that completes round R without having passed
// through the target is a violation. Schedules that never complete rounds
// (an unfair daemon starving a processor forever) satisfy every round bound
// vacuously — and collapse onto finitely many product states, so the BFS
// still closes.

// Liveness targets.
const (
	// TargetCycle certifies Theorem 4's shape from the clean start: every
	// schedule returns to the Start-Broadcast-Normal configuration (one
	// full PIF cycle) within the bound.
	TargetCycle = "cycle"
	// TargetNormal certifies Theorem 1's shape from corrupted starts:
	// every schedule reaches a normal configuration (Definition 8, no
	// abnormal processor) within the bound.
	TargetNormal = "normal"
)

// LivenessOptions configures one liveness certification.
type LivenessOptions struct {
	// Engine names the implementation under test (internal/engine): "sim"
	// (default), "flat", or "event".
	Engine string
	// Target is TargetCycle or TargetNormal.
	Target string
	// Bound is the round bound to certify; ≤ 0 derives the theorem's own
	// bound: 5h+5 with h ≤ n−1 for TargetCycle, 3·Lmax+3 for TargetNormal.
	Bound int
	// MaxStates aborts the exploration when the interned product-state
	// count exceeds it; ≤ 0 means 2,000,000.
	MaxStates int
	// CoreOptions are forwarded to core.New.
	CoreOptions []core.Option
}

// LivenessResult is the machine-readable outcome, serialized into
// explore.json by cmd/pifexplore certify.
type LivenessResult struct {
	Topology      string `json:"topology"`
	N             int    `json:"n"`
	Root          int    `json:"root"`
	Engine        string `json:"engine"`
	Power         string `json:"power"`
	InitMode      string `json:"init_mode,omitempty"`
	Target        string `json:"target"`
	Bound         int    `json:"bound_rounds"`
	WorstRounds   int    `json:"worst_rounds"`
	ProductStates int    `json:"product_states"`
	Transitions   int64  `json:"transitions"`
	Complete      bool   `json:"complete"`
	Verdict       string `json:"verdict"`
	Violation     string `json:"violation,omitempty"`
}

// livenessNode is one product state awaiting expansion.
type livenessNode struct {
	states  []core.State
	enabled []sim.Choice
	pending uint64 // processors still owed a move in the round in progress
	rounds  int    // 1-based index of the round in progress
}

// CertifyLiveness explores every central-daemon schedule from the given
// initial vectors through the chosen engine and certifies that the target
// is reached within the round bound on all of them. A bound violation (or a
// deadlock before the target) is a Result with Verdict "violation", not an
// error; an error means the exploration itself could not finish.
func CertifyLiveness(g *graph.Graph, root int, inits [][]core.State, opts LivenessOptions) (*LivenessResult, error) {
	if g.N() > maxN {
		return nil, fmt.Errorf("explore: %d processors exceeds the exploration bound %d", g.N(), maxN)
	}
	if opts.Target != TargetCycle && opts.Target != TargetNormal {
		return nil, fmt.Errorf("explore: unknown liveness target %q (want %s or %s)", opts.Target, TargetCycle, TargetNormal)
	}
	if opts.Engine == "" {
		opts.Engine = engine.Sim
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 2_000_000
	}
	if len(inits) == 0 {
		return nil, fmt.Errorf("explore: no initial states")
	}
	pr, err := core.New(g, root, opts.CoreOptions...)
	if err != nil {
		return nil, err
	}
	bound := opts.Bound
	if bound <= 0 {
		if opts.Target == TargetCycle {
			bound = 5*(g.N()-1) + 5 // h ≤ n−1 for any constructed tree
		} else {
			bound = 3*pr.Lmax + 3
		}
	}
	eng, err := newEngine(opts.Engine, g, root, "", opts.CoreOptions)
	if err != nil {
		return nil, err
	}
	var h hasher // identity group: pending masks name concrete processors
	scratch := sim.NewConfiguration(g, pr)
	done := func(states []core.State) bool {
		for p := range states {
			core.Set(scratch, p, states[p])
		}
		if opts.Target == TargetCycle {
			return check.IsSBN(scratch, pr)
		}
		return check.IsNormalConfiguration(scratch, pr)
	}
	keyOf := func(sk string, pending uint64, rounds int) string {
		var b [10]byte
		binary.LittleEndian.PutUint64(b[:8], pending)
		binary.LittleEndian.PutUint16(b[8:], uint16(rounds))
		return sk + string(b[:])
	}
	res := &LivenessResult{
		Topology: g.Name(), N: g.N(), Root: root,
		Engine: opts.Engine, Power: PowerCentral,
		Target: opts.Target, Bound: bound,
	}
	var (
		queue       []livenessNode
		seen        = make(map[string]struct{})
		transitions int64
		worst       int
		reached     bool
	)
	violation := func(msg string) (*LivenessResult, error) {
		res.ProductStates = len(seen)
		res.Transitions = transitions
		res.WorstRounds = worst
		res.Verdict = "violation"
		res.Violation = msg
		return res, nil
	}
	enqueue := func(states []core.State, enabled []sim.Choice, pending uint64, rounds int) bool {
		k := keyOf(h.key(states, monState{}), pending, rounds)
		if _, ok := seen[k]; ok {
			return true
		}
		if len(seen) >= opts.MaxStates {
			return false
		}
		seen[k] = struct{}{}
		queue = append(queue, livenessNode{states: states, enabled: enabled, pending: pending, rounds: rounds})
		return true
	}
	for _, init := range inits {
		if len(init) != g.N() {
			return nil, fmt.Errorf("explore: initial vector has %d states, want %d", len(init), g.N())
		}
		v := normalizeSeed(init)
		// TargetCycle's initial state IS the target (SBN); the cycle it
		// certifies is the return to it, so the init check applies only to
		// TargetNormal.
		if opts.Target == TargetNormal && done(v) {
			reached = true // reached within 0 rounds
			continue
		}
		enabled, err := eng.Probe(v)
		if err != nil {
			return nil, err
		}
		if len(enabled) == 0 {
			return violation(fmt.Sprintf("deadlock at an initial state before reaching the %s target", opts.Target))
		}
		var mask uint64
		for _, ch := range enabled {
			mask |= 1 << uint(ch.Proc)
		}
		if !enqueue(v, enabled, mask, 1) {
			return nil, fmt.Errorf("explore: product-state budget %d exceeded (raise MaxStates)", opts.MaxStates)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		nd := queue[qi]
		for _, ch := range nd.enabled {
			succ, enabledAfter, err := eng.Step(nd.states, []sim.Choice{ch})
			if err != nil {
				return nil, err
			}
			transitions++
			if done(succ) {
				reached = true
				if nd.rounds > worst {
					worst = nd.rounds
				}
				continue
			}
			var after uint64
			for _, c := range enabledAfter {
				after |= 1 << uint(c.Proc)
			}
			if after == 0 {
				return violation(fmt.Sprintf("deadlock during round %d before reaching the %s target", nd.rounds, opts.Target))
			}
			pending := (nd.pending &^ (1 << uint(ch.Proc))) & after
			rounds := nd.rounds
			if pending == 0 {
				if rounds >= bound {
					return violation(fmt.Sprintf("%d rounds completed without reaching the %s target (bound %d)", rounds, opts.Target, bound))
				}
				rounds++
				pending = after
			}
			if !enqueue(succ, enabledAfter, pending, rounds) {
				return nil, fmt.Errorf("explore: product-state budget %d exceeded (raise MaxStates)", opts.MaxStates)
			}
		}
	}
	if !reached {
		return violation(fmt.Sprintf("no schedule ever reached the %s target", opts.Target))
	}
	res.ProductStates = len(seen)
	res.Transitions = transitions
	res.WorstRounds = worst
	res.Complete = true
	res.Verdict = "certified"
	return res, nil
}
