// Package mc is an exhaustive model checker for PIF protocols on small
// networks. Where the simulator samples executions, the checker enumerates
// them: it builds the full transition system over
//
//   - every initial configuration (the complete product of the variable
//     domains — "starting from any configuration" taken literally), and
//   - every daemon choice (under the central daemon every single enabled
//     processor; under the full distributed daemon every non-empty subset
//     of enabled processors),
//
// and verifies, over all reachable states:
//
//	safety    — whenever the root completes a feedback ([PIF2]'s moment),
//	            every processor received the current broadcast and fed
//	            back ([PIF1], [PIF2]);
//	no-deadlock — every reachable configuration has an enabled processor
//	            (the PIF scheme never terminates: a new cycle always
//	            follows);
//	liveness  — from every reachable configuration some execution reaches
//	            an all-clean configuration (EF SBN; the stronger
//	            AF-liveness under weak fairness is what Theorems 1–4
//	            bound, validated empirically by the experiment harness).
//
// Message payloads are abstracted to one bit ("carries the current
// broadcast"), which is exactly the information the specification test
// needs and keeps the state space finite.
//
// Checking the snap-stabilizing protocol (SnapModel) proves the paper's
// claim exhaustively on small instances — and exposed two deadlocks in the
// algorithm as transcribed (see DESIGN.md §2, repairs 3 and 4). Checking
// the self-stabilizing baseline (SelfStabModel) automatically produces a
// concrete counterexample: a corrupted configuration and schedule whose
// first completed wave was never delivered.
package mc

import (
	"fmt"
	"math/bits"
	"slices"

	"snappif/internal/graph"
	"snappif/internal/sim"
)

// ActionKind classifies a protocol action for the specification monitor.
type ActionKind int

// Action kinds.
const (
	// KindOther is any action that neither opens a wave nor feeds back.
	KindOther ActionKind = iota
	// KindBroadcast is a B-action (joins or, at the root, opens a wave).
	KindBroadcast
	// KindFeedback is an F-action.
	KindFeedback
)

// Model adapts one protocol to the checker: it enumerates the per-processor
// variable domains (with the message register abstracted to one bit) and
// classifies actions and states.
type Model interface {
	// Proto returns the protocol.
	Proto() sim.Protocol
	// Graph returns the network.
	Graph() *graph.Graph
	// Root returns the initiator.
	Root() int
	// Domain enumerates every domain value of processor p's state.
	Domain(p int) []sim.State
	// Kind classifies action a at processor p.
	Kind(p, a int) ActionKind
	// Msg returns the one-bit message register of s.
	Msg(s sim.State) uint64
	// WithMsg returns s with the message register set to bit.
	WithMsg(s sim.State, bit uint64) sim.State
	// Clean reports whether s is in the clean phase.
	Clean(s sim.State) bool
	// Key appends a canonical encoding of s to b.
	Key(b []byte, s sim.State) []byte
	// Render renders s readably for counterexample traces.
	Render(p int, s sim.State) string
}

// Composite extends Model for protocols composed of several concurrent,
// independent wave instances (internal/multi): the specification monitor
// keeps one broadcast window per instance. Plain (single-instance) models
// need not implement it.
type Composite interface {
	Model

	// Instances returns the number of composed instances.
	Instances() int
	// InstanceRoot returns instance i's initiator.
	InstanceRoot(i int) int
	// InstanceOf returns the instance an action belongs to.
	InstanceOf(a int) int
	// MsgAt returns instance i's one-bit message register in s.
	MsgAt(s sim.State, i int) uint64
	// WithMsgAt returns s with instance i's message register set.
	WithMsgAt(s sim.State, i int, bit uint64) sim.State
}

// singleComposite adapts a plain Model to the Composite view.
type singleComposite struct {
	Model
}

func (sc singleComposite) Instances() int       { return 1 }
func (sc singleComposite) InstanceRoot(int) int { return sc.Model.Root() }
func (sc singleComposite) InstanceOf(int) int   { return 0 }
func (sc singleComposite) MsgAt(s sim.State, _ int) uint64 {
	return sc.Model.Msg(s)
}
func (sc singleComposite) WithMsgAt(s sim.State, _ int, bit uint64) sim.State {
	return sc.Model.WithMsg(s, bit)
}

// asComposite upgrades any Model to the Composite view.
func asComposite(m Model) Composite {
	if c, ok := m.(Composite); ok {
		return c
	}
	return singleComposite{Model: m}
}

// DaemonPower selects how much scheduling nondeterminism to explore.
type DaemonPower int

// Daemon powers.
const (
	// CentralPower explores one enabled processor per step.
	CentralPower DaemonPower = iota + 1
	// DistributedPower explores every non-empty subset of enabled
	// processors per step (exponentially more transitions; sound and
	// complete for the paper's distributed daemon).
	DistributedPower
)

// Result reports a completed state-space exploration.
type Result struct {
	// States is the number of distinct reachable states (configuration ×
	// monitor).
	States int
	// Transitions is the number of explored transitions.
	Transitions int
	// InitialStates is the number of enumerated initial configurations.
	InitialStates int
	// SafetyViolation describes a specification violation (with the
	// violating state), nil if safety holds.
	SafetyViolation []string
	// Deadlock is a trace to a deadlocked state, nil if none exists.
	Deadlock []string
	// LivenessViolation is a trace to a state from which no all-clean
	// configuration is reachable, nil if EF-SBN holds everywhere.
	LivenessViolation []string
}

// OK reports whether all three checked properties hold.
func (r Result) OK() bool {
	return r.SafetyViolation == nil && r.Deadlock == nil && r.LivenessViolation == nil
}

// Checker explores the product of a protocol state space and the
// specification monitor. A state is n interned box IDs plus a 64-bit
// monitor word, deduplicated by an open-addressing table; states are
// expanded in ID (BFS) order, so the transitions form a forward CSR.
type Checker struct {
	m       Model
	comp    Composite
	proto   sim.Protocol
	inPlace sim.InPlaceProtocol // proto, when it can apply into spare
	n, k    int
	roots   []int
	power   DaemonPower
	limit   int

	boxes []sim.State      // interned boxes by box ID
	boxID map[string]int32 // Model.Key → box ID

	ids   []int32  // state s's box IDs are ids[s*n : (s+1)*n]
	mons  []uint64 // state s's monitor word (fedBit, cycleBit)
	first []int32  // first predecessor (-1 for initial states): trace spine
	table []int32  // open addressing over (box IDs, monitor): state ID + 1, 0 empty

	out  []int32 // state s's successors are succ[out[s]:out[s+1]]
	succ []int32

	// Scratch reused by every expansion.
	cfg     *sim.Configuration // the state being expanded, as boxes
	cur     []int32            // its box IDs
	next    []int32            // box IDs of the successor being built
	enabled []sim.Choice
	spare   sim.State // inPlace's scratch box; internBox copies it
	key     []byte
}

// New builds a checker for the given model (plain or Composite).
func New(m Model, power DaemonPower) *Checker {
	comp := asComposite(m)
	k := comp.Instances()
	g := m.Graph()
	n := g.N()
	roots := make([]int, k)
	for i := range roots {
		roots[i] = comp.InstanceRoot(i)
	}
	c := &Checker{
		m: m, comp: comp, proto: m.Proto(), n: n, k: k, roots: roots, power: power,
		boxID: make(map[string]int32),
		cfg:   &sim.Configuration{G: g, States: make([]sim.State, n)},
		cur:   make([]int32, n),
		next:  make([]int32, n),
	}
	if c.inPlace, _ = c.proto.(sim.InPlaceProtocol); c.inPlace != nil {
		c.spare = c.proto.InitialState(0)
	}
	return c
}

// fedBit is the monitor bit marking p's acknowledgment of instance i's
// current wave; cycleBit marks instance i's broadcast window open.
func (c *Checker) fedBit(i, p int) uint64 { return 1 << uint(i*(c.n+1)+p) }
func (c *Checker) cycleBit(i int) uint64  { return 1 << uint(i*(c.n+1)+c.n) }

// render is a human-readable form for counterexample traces.
func (c *Checker) render(ids []int32, mon uint64) string {
	out := ""
	for p, b := range ids {
		if p > 0 {
			out += " "
		}
		out += c.m.Render(p, c.boxes[b])
		for i := 0; i < c.k; i++ {
			if mon&c.fedBit(i, p) != 0 {
				out += "*"
			}
		}
	}
	for i := 0; i < c.k; i++ {
		if mon&c.cycleBit(i) != 0 {
			out += fmt.Sprintf(" [cycle %d open]", i)
		}
	}
	return out
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// SetLimit bounds the number of interned states: the first state past the
// limit fails the exploration with an error instead of exhausting memory.
// 0 means unlimited.
func (c *Checker) SetLimit(states int) { c.limit = states }

// Run enumerates the full domain product as the initial state set, then
// explores and checks all properties.
func (c *Checker) Run() (Result, error) { return c.run(c.seed) }

// RunFrom explores only from the given initial configurations — systematic
// full-schedule checking from chosen corruptions, usable on instances whose
// full domain product is out of reach. The monitor starts outside any cycle
// window and all fed-marks cleared, exactly as in Run.
func (c *Checker) RunFrom(configs []*sim.Configuration) (Result, error) {
	return c.run(func(res *Result) error {
		if len(configs) == 0 {
			return fmt.Errorf("mc: no initial states")
		}
		for _, cfg := range configs {
			for p, s := range cfg.States {
				// Normalize the message abstraction: "1" is reserved for
				// the live broadcast, so stale payloads map to 0 ("does
				// not carry the current message").
				for i := 0; i < c.k; i++ {
					s = c.comp.WithMsgAt(s, i, 0)
				}
				c.cur[p] = c.internBox(s)
			}
			res.InitialStates++
			if _, err := c.intern(c.cur, 0, -1); err != nil {
				return err
			}
		}
		return nil
	})
}

// run checks that the monitor fits its word (k·(n+1) bits for k instances
// over n processors), interns the initial states with seed, and explores.
func (c *Checker) run(seed func(*Result) error) (Result, error) {
	var res Result
	if w := c.k * (c.n + 1); w > 64 {
		return res, fmt.Errorf("mc: the monitor needs %d bits (%d instances × %d), more than 64", w, c.k, c.n+1)
	}
	if err := seed(&res); err != nil {
		return res, err
	}
	return c.explore(res)
}

// explore expands every state in ID (BFS) order and runs the liveness pass.
func (c *Checker) explore(res Result) (Result, error) {
	for id := 0; id < len(c.mons); id++ {
		if done, err := c.expand(int32(id), &res); err != nil || done {
			res.States, res.Transitions = len(c.mons), len(c.succ)
			return res, err
		}
	}
	c.out = append(c.out, int32(len(c.succ)))
	res.States, res.Transitions = len(c.mons), len(c.succ)
	if id := c.unlive(); id >= 0 {
		res.LivenessViolation = append(c.traceTo(id),
			"LIVENESS: no all-clean configuration reachable from here")
	}
	return res, nil
}

// unlive returns the lowest state ID from which no all-clean (SBN) state is
// reachable, or -1 when every state reaches one. It reverses the forward
// CSR into a predecessor CSR and searches backwards from the all-clean
// states.
func (c *Checker) unlive() int32 {
	ns := len(c.mons)
	off := make([]int32, ns+1) // t's predecessors are preds[off[t]:off[t+1]]
	for _, t := range c.succ {
		off[t]++
	}
	for s := 1; s <= ns; s++ {
		off[s] += off[s-1] // off[t] is the end of t's segment
	}
	preds := make([]int32, len(c.succ))
	for s := 0; s < ns; s++ {
		for _, t := range c.succ[c.out[s]:c.out[s+1]] {
			off[t]-- // filling backwards leaves off[t] at the segment's start
			preds[off[t]] = int32(s)
		}
	}
	reaches := make([]bool, ns)
	queue := make([]int32, 0, ns)
	for s := 0; s < ns; s++ {
		if c.allClean(int32(s)) {
			reaches[s] = true
			queue = append(queue, int32(s))
		}
	}
	for i := 0; i < len(queue); i++ {
		t := queue[i]
		for _, s := range preds[off[t]:off[t+1]] {
			if !reaches[s] {
				reaches[s] = true
				queue = append(queue, s)
			}
		}
	}
	for s, ok := range reaches {
		if !ok {
			return int32(s)
		}
	}
	return -1
}

// seed enumerates every initial configuration over the full variable
// domains and interns them.
func (c *Checker) seed(res *Result) error {
	domains := make([][]int32, c.n)
	for p := range domains {
		for _, s := range c.m.Domain(p) {
			domains[p] = append(domains[p], c.internBox(s))
		}
	}
	var rec func(p int) error
	rec = func(p int) error {
		if p == c.n {
			res.InitialStates++
			_, err := c.intern(c.cur, 0, -1)
			return err
		}
		for _, b := range domains[p] {
			c.cur[p] = b
			if err := rec(p + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// internBox returns the ID of the box with s's key, interning a copy of s
// if the key is new. The lookup allocates nothing.
func (c *Checker) internBox(s sim.State) int32 {
	c.key = c.m.Key(c.key[:0], s)
	if id, ok := c.boxID[string(c.key)]; ok {
		return id
	}
	id := int32(len(c.boxes))
	c.boxID[string(c.key)] = id
	c.boxes = append(c.boxes, s.Clone())
	return id
}

// intern returns the ID of state (ids, mon), registering it if new; from
// records the discovering predecessor (-1 for initial states). A new state
// past the limit is an error.
func (c *Checker) intern(ids []int32, mon uint64, from int32) (int32, error) {
	if 2*len(c.mons) >= len(c.table) {
		c.grow()
	}
	i := c.probe(ids, mon)
	if c.table[i] != 0 {
		return c.table[i] - 1, nil
	}
	if c.limit > 0 && len(c.mons) >= c.limit {
		return -1, fmt.Errorf("mc: state limit %d exceeded", c.limit)
	}
	id := int32(len(c.mons))
	c.table[i] = id + 1
	c.ids = append(c.ids, ids...)
	c.mons = append(c.mons, mon)
	c.first = append(c.first, from)
	return id, nil
}

// probe returns the table slot holding state (ids, mon), or the empty slot
// where it belongs.
func (c *Checker) probe(ids []int32, mon uint64) uint64 {
	mask := uint64(len(c.table) - 1)
	i := hashState(ids, mon) & mask
	for ; c.table[i] != 0; i = (i + 1) & mask {
		s := c.table[i] - 1
		if c.mons[s] == mon && slices.Equal(c.boxesOf(s), ids) {
			break
		}
	}
	return i
}

// grow doubles the visited table (keeping its load at most one half) and
// reinserts every state.
func (c *Checker) grow() {
	c.table = make([]int32, max(2*len(c.table), 1024))
	for s := range c.mons {
		c.table[c.probe(c.boxesOf(int32(s)), c.mons[s])] = int32(s + 1)
	}
}

// boxesOf returns state s's box IDs.
func (c *Checker) boxesOf(s int32) []int32 { return c.ids[int(s)*c.n : int(s+1)*c.n] }

// hashState mixes a state's box IDs and monitor word into a table hash.
func hashState(ids []int32, mon uint64) uint64 {
	h := mon
	for _, id := range ids {
		h = (h ^ uint64(uint32(id))) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>32
}

// traceTo reconstructs the discovery path from an initial state to id,
// rendering at most the last maxTraceStates states.
const maxTraceStates = 24

func (c *Checker) traceTo(id int32) []string {
	var ids []int32
	for cur := id; cur >= 0; cur = c.first[cur] {
		ids = append(ids, cur)
	}
	slices.Reverse(ids) // target…initial into execution order
	var out []string
	if len(ids) > maxTraceStates {
		out = append(out, fmt.Sprintf("… (%d earlier states)", len(ids)-maxTraceStates))
		ids = ids[len(ids)-maxTraceStates:]
	}
	for i, s := range ids {
		out = append(out, fmt.Sprintf("%3d: %s", i, c.render(c.boxesOf(s), c.mons[s])))
	}
	return out
}

// ExclusiveGuards marks models whose per-processor guards are pairwise
// exclusive (at most one enabled action per processor and instance); the
// checker then verifies exclusivity over every reachable state, turning the
// sampled property test into an exhaustive one.
type ExclusiveGuards interface {
	// GuardsAreExclusive reports whether exclusivity should be enforced.
	GuardsAreExclusive() bool
}

// StateInvariant marks models carrying a per-configuration invariant (for
// the snap protocol: Properties 1–2 and the variable domains); the checker
// evaluates it on every reachable state, upgrading the simulator's sampled
// invariant monitoring to an exhaustive proof on small instances.
type StateInvariant interface {
	// Invariant returns nil when the configuration satisfies the model's
	// invariants.
	Invariant(c *sim.Configuration) error
}

// expand generates all successors of a state and checks safety on each
// transition. It returns true when a violation ends the exploration.
func (c *Checker) expand(id int32, res *Result) (bool, error) {
	c.out = append(c.out, int32(len(c.succ)))
	copy(c.cur, c.boxesOf(id))
	mon := c.mons[id]
	for p, b := range c.cur {
		c.cfg.States[p] = c.boxes[b]
	}
	c.enabled = sim.AppendEnabledChoices(c.enabled[:0], c.cfg, c.proto)
	if len(c.enabled) == 0 {
		res.Deadlock = append(c.traceTo(id), "DEADLOCK: no processor enabled")
		return true, nil
	}
	if si, ok := c.m.(StateInvariant); ok {
		if err := si.Invariant(c.cfg); err != nil {
			res.SafetyViolation = append(c.traceTo(id),
				fmt.Sprintf("INVARIANT violated: %v", err))
			return true, nil
		}
	}
	if eg, ok := c.m.(ExclusiveGuards); ok && eg.GuardsAreExclusive() {
		var seen uint64 // bit p·k+i: p has an enabled action of instance i
		for _, ch := range c.enabled {
			bit := uint64(1) << uint(ch.Proc*c.k+c.comp.InstanceOf(ch.Action))
			if seen&bit != 0 {
				res.SafetyViolation = append(c.traceTo(id),
					fmt.Sprintf("GUARD EXCLUSIVITY violated: p%d has 2 enabled actions in one instance", ch.Proc))
				return true, nil
			}
			seen |= bit
		}
	}
	if len(c.enabled) > 63 {
		return false, fmt.Errorf("mc: %d enabled choices in one state; a selection mask holds 63", len(c.enabled))
	}
	// A selection is a bitmask over c.enabled: the central daemon selects
	// each single choice, the distributed daemon every non-empty subset.
	last := uint64(1)<<len(c.enabled) - 1
	for sel := uint64(1); sel <= last; {
		next, violation := c.apply(mon, sel)
		if violation != "" {
			res.SafetyViolation = append(c.traceTo(id), violation)
			return true, nil
		}
		nid, err := c.intern(c.next, next, id)
		if err != nil {
			return false, err
		}
		c.succ = append(c.succ, nid)
		if c.power == CentralPower {
			sel <<= 1
		} else {
			sel++
		}
	}
	return false, nil
}

// apply executes the daemon selection sel (a bitmask over c.enabled) with
// composite atomicity from the state in c.cfg/c.cur with monitor mon. It
// builds the successor's box IDs in c.next and returns its monitor and a
// safety-violation description ("" if fine).
func (c *Checker) apply(mon, sel uint64) (uint64, string) {
	copy(c.next, c.cur)
	next := mon
	var rootBroadcast uint64 // bit i: instance i's root opened a wave
	var violation string
	for m := sel; m != 0; m &= m - 1 {
		ch := c.enabled[bits.TrailingZeros64(m)]
		// Every mover reads the pre-step configuration c.cfg, which
		// nothing here writes: composite atomicity.
		ns := c.spare
		if c.inPlace != nil {
			c.inPlace.ApplyInto(c.cfg, ch.Proc, ch.Action, ns)
		} else {
			ns = c.proto.Apply(c.cfg, ch.Proc, ch.Action)
		}
		inst := c.comp.InstanceOf(ch.Action)
		root := c.roots[inst]
		switch c.m.Kind(ch.Proc, ch.Action) {
		case KindBroadcast:
			if ch.Proc == root {
				rootBroadcast |= 1 << uint(inst)
				ns = c.comp.WithMsgAt(ns, inst, 1)
			}
			// Non-root B-actions copied the parent's message bit via
			// Apply, reading the pre-step configuration — exactly the
			// shared-memory semantics.
		case KindFeedback:
			if ch.Proc == root {
				if next&c.cycleBit(inst) != 0 {
					if v := c.checkDelivery(inst, mon, sel); v != "" && violation == "" {
						violation = v
					}
					next &^= c.cycleBit(inst)
				}
			} else if c.comp.MsgAt(ns, inst) == 1 {
				next |= c.fedBit(inst, ch.Proc)
			}
		}
		c.next[ch.Proc] = c.internBox(ns)
	}
	for m := rootBroadcast; m != 0; m &= m - 1 {
		inst := bits.TrailingZeros64(m)
		next |= c.cycleBit(inst)
		for p := 0; p < c.n; p++ {
			next &^= c.fedBit(inst, p)
			if b := c.boxes[c.next[p]]; p != c.roots[inst] && c.comp.MsgAt(b, inst) != 0 {
				c.next[p] = c.internBox(c.comp.WithMsgAt(b, inst, 0))
			}
		}
	}
	return next, violation
}

// checkDelivery evaluates [PIF1]/[PIF2] at a root F-action: in the pre-step
// configuration (c.cfg, monitor mon) every non-root processor must hold the
// current message and have fed back (or be feeding back in this very step).
func (c *Checker) checkDelivery(inst int, mon, sel uint64) string {
	root := c.roots[inst]
	var feedingNow uint64 // bit p: p feeds back instance inst in this step
	for m := sel; m != 0; m &= m - 1 {
		ch := c.enabled[bits.TrailingZeros64(m)]
		if ch.Proc != root && c.comp.InstanceOf(ch.Action) == inst &&
			c.m.Kind(ch.Proc, ch.Action) == KindFeedback &&
			c.comp.MsgAt(c.cfg.States[ch.Proc], inst) == 1 {
			feedingNow |= 1 << uint(ch.Proc)
		}
	}
	for p := 0; p < c.n; p++ {
		if p == root {
			continue
		}
		if c.comp.MsgAt(c.cfg.States[p], inst) != 1 {
			return fmt.Sprintf("PIF1 violated: instance %d, p%d never received the broadcast (%s)",
				inst, p, c.render(c.cur, mon))
		}
		if mon&c.fedBit(inst, p) == 0 && feedingNow&(1<<uint(p)) == 0 {
			return fmt.Sprintf("PIF2 violated: instance %d, p%d never acknowledged (%s)",
				inst, p, c.render(c.cur, mon))
		}
	}
	return ""
}

// allClean reports whether every box of state s is in the clean phase.
func (c *Checker) allClean(s int32) bool {
	for _, b := range c.boxesOf(s) {
		if !c.m.Clean(c.boxes[b]) {
			return false
		}
	}
	return true
}
