// Package sim implements the computational model of the paper (Section 2):
// the locally shared memory model with guarded actions, atomically executed
// steps under a distributed daemon, and round-based time complexity.
//
// A protocol is a set of guarded actions per processor. A configuration is
// the vector of all processor states. In one computation step the daemon
// selects a non-empty subset of the enabled processors; every selected
// processor atomically evaluates its guard and executes the corresponding
// statement, reading the *pre-step* configuration (composite atomicity). The
// engine counts steps, moves (individual action executions), and rounds
// exactly per the paper's definition of round (Dolev, Israeli, Moran [16]):
// a round is a minimal computation segment in which every processor that was
// continuously enabled from the segment's first configuration executes an
// action — where "action" includes the disable action (becoming disabled
// because a neighbor moved).
package sim

import (
	"fmt"

	"snappif/internal/graph"
)

// State is the local state of one processor. Protocols define concrete state
// types; the engine only needs to duplicate them when committing steps.
type State interface {
	// Clone returns a deep copy of the state.
	Clone() State
}

// InPlaceState is the zero-allocation extension of State: a state box that
// can be overwritten with the contents of another box of the same concrete
// type. Configuration.CopyFrom uses it to restore a scratch configuration
// without allocating, which keeps search-adversary rollouts off the heap.
type InPlaceState interface {
	State

	// CopyFrom overwrites the receiver with a copy of src. src has the
	// receiver's concrete type (boxes never mix types inside one run).
	CopyFrom(src State)
}

// Protocol is a distributed algorithm expressed as guarded actions, e.g. the
// snap-stabilizing PIF of the paper (internal/core) or the baselines.
type Protocol interface {
	// Name identifies the protocol in traces and tables.
	Name() string

	// ActionNames returns the label of every action, indexed by action ID.
	// Labels follow the paper ("B-action", "F-correction", …).
	ActionNames() []string

	// Enabled returns the IDs of all actions whose guard holds at processor
	// p in configuration c. For the protocols in this repository guards are
	// mutually exclusive, so the slice has length 0 or 1 (enforced by
	// property tests); the engine nevertheless supports the general case.
	Enabled(c *Configuration, p int) []int

	// Apply executes action a at processor p: it reads the pre-step
	// configuration c and returns p's next state. Apply must not mutate c.
	Apply(c *Configuration, p int, a int) State

	// InitialState returns p's state in the protocol's normal starting
	// configuration (for PIF: Pif_p = C everywhere).
	InitialState(p int) State
}

// InPlaceProtocol is the zero-allocation extension of Protocol: a protocol
// whose states are stored as pointer boxes and that can compute a next state
// directly into a caller-supplied box. The runner gives such protocols a
// shadow box per processor and commits steps by swapping boxes, so a
// committed step performs no heap allocation.
type InPlaceProtocol interface {
	Protocol

	// ApplyInto executes action a at processor p like Apply, but overwrites
	// dst (a box previously produced by InitialState or Clone) with p's next
	// state instead of allocating. Like Apply it reads the pre-step
	// configuration c and must not mutate it; dst is never aliased by c.
	ApplyInto(c *Configuration, p int, a int, dst State)
}

// LocalProtocol marks protocols whose guards depend only on the closed
// neighborhood: Enabled(c, p) reads only the states of p and p's neighbors.
// Every protocol in the locally shared memory model has this property; the
// marker lets the runner re-evaluate guards incrementally (only around the
// processors that moved) instead of over the whole network each step.
type LocalProtocol interface {
	Protocol

	// GuardsAreLocal is a marker; implementations return true.
	GuardsAreLocal() bool
}

// RadiusProtocol optionally refines LocalProtocol for protocols whose
// guards read a bounded neighborhood wider than one hop: Enabled(c, p) may
// read the states of every processor within DirtyRadius hops of p. A
// LocalProtocol without this extension is assumed to have radius 1 (the
// locally shared memory model's register visibility). The runner dilates
// the incremental guard re-evaluation accordingly: after a step it
// re-evaluates every processor within DirtyRadius hops of a mover —
// claiming a radius smaller than the guards actually read makes the
// enabled cache silently stale, exactly like claiming GuardsAreLocal for a
// non-local protocol.
type RadiusProtocol interface {
	LocalProtocol

	// DirtyRadius returns the maximum hop distance Enabled reads, ≥ 1.
	DirtyRadius() int
}

// Configuration is a global system configuration: the topology plus the
// vector of all processor states.
type Configuration struct {
	G      *graph.Graph
	States []State
}

// NewConfiguration builds the protocol's normal starting configuration on g.
func NewConfiguration(g *graph.Graph, p Protocol) *Configuration {
	states := make([]State, g.N())
	for i := range states {
		states[i] = p.InitialState(i)
	}
	return &Configuration{G: g, States: states}
}

// Clone returns a deep copy of the configuration (sharing the immutable
// graph).
func (c *Configuration) Clone() *Configuration {
	states := make([]State, len(c.States))
	for i, s := range c.States {
		states[i] = s.Clone()
	}
	return &Configuration{G: c.G, States: states}
}

// CopyFrom overwrites c's states with deep copies of src's. When both
// configurations hold InPlaceState boxes of equal length the copy happens in
// place — no allocation — which is what the search adversary's inner loop
// needs to restore its scratch configuration between rollouts; otherwise it
// falls back to cloning fresh boxes. The graph pointer is shared (graphs are
// immutable). c and src must not share state boxes.
//
//snapvet:hotpath
func (c *Configuration) CopyFrom(src *Configuration) {
	c.G = src.G
	if len(c.States) == len(src.States) {
		in := true
		for i, s := range c.States {
			box, ok := s.(InPlaceState)
			if !ok {
				in = false
				break
			}
			box.CopyFrom(src.States[i])
		}
		if in {
			return
		}
	}
	c.copyFromSlow(src)
}

// copyFromSlow is CopyFrom's allocating fallback for configurations whose
// boxes do not implement InPlaceState (or whose lengths differ). Kept out of
// the hot-path annotation: protocols on the zero-allocation path never reach
// it.
//
//snapvet:coldpath fallback for non-InPlaceState boxes; the zero-allocation path never reaches it
func (c *Configuration) copyFromSlow(src *Configuration) {
	if cap(c.States) >= len(src.States) {
		c.States = c.States[:len(src.States)]
	} else {
		c.States = make([]State, len(src.States))
	}
	for i, s := range src.States {
		c.States[i] = s.Clone()
	}
}

// N returns the number of processors.
func (c *Configuration) N() int { return c.G.N() }

// Choice identifies one enabled (processor, action) pair.
type Choice struct {
	Proc   int
	Action int
}

// String renders the choice as "p3/a1".
func (ch Choice) String() string { return fmt.Sprintf("p%d/a%d", ch.Proc, ch.Action) }

// EnabledChoices lists every enabled (processor, action) pair in c, in
// ascending processor order.
func EnabledChoices(c *Configuration, p Protocol) []Choice {
	return AppendEnabledChoices(nil, c, p)
}

// AppendEnabledChoices appends EnabledChoices(c, p) to dst, so a caller that
// reuses dst across configurations allocates nothing once it has grown.
func AppendEnabledChoices(dst []Choice, c *Configuration, p Protocol) []Choice {
	for proc := 0; proc < c.N(); proc++ {
		for _, a := range p.Enabled(c, proc) {
			dst = append(dst, Choice{Proc: proc, Action: a})
		}
	}
	return dst
}

// IsTerminal reports whether no processor is enabled in c.
func IsTerminal(c *Configuration, p Protocol) bool {
	for proc := 0; proc < c.N(); proc++ {
		if len(p.Enabled(c, proc)) > 0 {
			return false
		}
	}
	return true
}
