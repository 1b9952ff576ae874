package mc

import (
	"fmt"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/multi"
	"snappif/internal/sim"
)

// MultiModel adapts the concurrent-initiator composition (internal/multi)
// to the checker: the monitor keeps one broadcast window per initiator, so
// exhaustive exploration verifies that every instance satisfies
// [PIF1]/[PIF2] independently of the interleaving — including any coupling
// bug the composition layer itself might introduce.
//
// The full domain product of a composition is enormous even on tiny
// networks, so MultiModel supports RunFrom (systematic checking from chosen
// configurations) only; Run's Domain enumeration is not implemented.
type MultiModel struct {
	g  *graph.Graph
	mp *multi.Protocol
}

var _ Composite = (*MultiModel)(nil)

// NewMultiModel builds the composite model for the given initiators.
func NewMultiModel(g *graph.Graph, roots []int) (*MultiModel, error) {
	mp, err := multi.New(g, roots)
	if err != nil {
		return nil, err
	}
	return &MultiModel{g: g, mp: mp}, nil
}

// Protocol exposes the composed protocol (for building seed configurations).
func (m *MultiModel) Protocol() *multi.Protocol { return m.mp }

// Proto implements Model.
func (m *MultiModel) Proto() sim.Protocol { return m.mp }

// Graph implements Model.
func (m *MultiModel) Graph() *graph.Graph { return m.g }

// Root implements Model (instance 0's initiator; the per-instance roots
// come from InstanceRoot).
func (m *MultiModel) Root() int { return m.mp.Roots[0] }

// Domain implements Model. The composition's domain product is out of
// reach; use RunFrom.
func (m *MultiModel) Domain(int) []sim.State {
	panic("mc: MultiModel supports RunFrom only (the composite domain product is out of reach)")
}

// Kind implements Model.
func (m *MultiModel) Kind(_, a int) ActionKind {
	_, ca := m.mp.Decode(a)
	return kindOf(ca, core.ActionB, core.ActionF)
}

// Msg implements Model (instance 0's register).
func (m *MultiModel) Msg(s sim.State) uint64 { return m.MsgAt(s, 0) }

// WithMsg implements Model (instance 0's register).
func (m *MultiModel) WithMsg(s sim.State, bit uint64) sim.State { return m.WithMsgAt(s, 0, bit) }

// Clean implements Model: clean in every instance.
func (m *MultiModel) Clean(s sim.State) bool {
	for _, st := range s.(multi.State).Per {
		if st.Pif != core.C {
			return false
		}
	}
	return true
}

// Key implements Model.
func (m *MultiModel) Key(b []byte, s sim.State) []byte {
	for _, st := range s.(multi.State).Per {
		b = append(b, byte(st.Pif), byte(st.Par+2), byte(st.L), byte(st.Count),
			boolByte(st.Fok), byte(st.Msg))
	}
	return b
}

// Render implements Model.
func (m *MultiModel) Render(p int, s sim.State) string {
	out := fmt.Sprintf("p%d", p)
	for i, st := range s.(multi.State).Per {
		out += fmt.Sprintf("{r%d:%v par=%d L=%d m=%d}", m.mp.Roots[i], st.Pif, st.Par, st.L, st.Msg)
	}
	return out
}

// Instances implements Composite.
func (m *MultiModel) Instances() int { return len(m.mp.Roots) }

// InstanceRoot implements Composite.
func (m *MultiModel) InstanceRoot(i int) int { return m.mp.Roots[i] }

// InstanceOf implements Composite.
func (m *MultiModel) InstanceOf(a int) int {
	inst, _ := m.mp.Decode(a)
	return inst
}

// MsgAt implements Composite.
func (m *MultiModel) MsgAt(s sim.State, i int) uint64 { return s.(multi.State).Per[i].Msg }

// WithMsgAt implements Composite.
func (m *MultiModel) WithMsgAt(s sim.State, i int, bit uint64) sim.State {
	st := s.(multi.State).Clone().(multi.State)
	st.Per[i].Msg = bit
	return st
}

// GuardsAreExclusive implements ExclusiveGuards: per instance the guards
// are the core protocol's, hence exclusive.
func (m *MultiModel) GuardsAreExclusive() bool { return true }
