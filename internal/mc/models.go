package mc

import (
	"fmt"

	"snappif/internal/baseline/selfstab"
	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// SnapModel adapts the snap-stabilizing PIF protocol (internal/core) to the
// checker.
type SnapModel struct {
	g  *graph.Graph
	pr *core.Protocol
}

var _ Model = (*SnapModel)(nil)

// NewSnapModel builds the model for network g rooted at root.
func NewSnapModel(g *graph.Graph, root int) (*SnapModel, error) {
	return NewSnapModelWith(g, root)
}

// NewSnapModelWith builds the model with protocol options — notably
// core.WithPrintedGuards, which reverts the transcription repairs so the
// checker can demonstrate the deadlocks that forced them.
func NewSnapModelWith(g *graph.Graph, root int, opts ...core.Option) (*SnapModel, error) {
	pr, err := core.New(g, root, opts...)
	if err != nil {
		return nil, err
	}
	return &SnapModel{g: g, pr: pr}, nil
}

// Proto implements Model.
func (m *SnapModel) Proto() sim.Protocol { return m.pr }

// Graph implements Model.
func (m *SnapModel) Graph() *graph.Graph { return m.g }

// Root implements Model.
func (m *SnapModel) Root() int { return m.pr.Root }

// Domain implements Model: the full product of Pif × Par × L × Count ×
// Fok × message-bit.
func (m *SnapModel) Domain(p int) []sim.State {
	parents, levels := parLevels(m.g, m.pr.Root, m.pr.Lmax, p, core.ParNone)
	var out []sim.State
	for _, pif := range []core.Phase{core.B, core.F, core.C} {
		for _, par := range parents {
			for _, l := range levels {
				for cnt := 1; cnt <= m.pr.NPrime; cnt++ {
					for _, fok := range []bool{false, true} {
						for _, msg := range []uint64{0, 1} {
							out = append(out, &core.State{
								Pif: pif, Par: par, L: l,
								Count: cnt, Fok: fok, Msg: msg,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// parLevels returns p's Par and L domains: {none} and {0} at the root, the
// neighbors and [1, lmax] elsewhere.
func parLevels(g *graph.Graph, root, lmax, p, none int) (parents, levels []int) {
	if p == root {
		return []int{none}, []int{0}
	}
	for l := 1; l <= lmax; l++ {
		levels = append(levels, l)
	}
	return g.Neighbors(p), levels
}

// Kind implements Model.
func (m *SnapModel) Kind(_, a int) ActionKind { return kindOf(a, core.ActionB, core.ActionF) }

// kindOf classifies action a of a protocol whose B- and F-actions are
// actionB and actionF.
func kindOf(a, actionB, actionF int) ActionKind {
	switch a {
	case actionB:
		return KindBroadcast
	case actionF:
		return KindFeedback
	}
	return KindOther
}

// Msg implements Model.
func (m *SnapModel) Msg(s sim.State) uint64 { return s.(*core.State).Msg }

// WithMsg implements Model.
func (m *SnapModel) WithMsg(s sim.State, bit uint64) sim.State {
	st := *s.(*core.State)
	st.Msg = bit
	return &st
}

// Clean implements Model.
func (m *SnapModel) Clean(s sim.State) bool { return s.(*core.State).Pif == core.C }

// Key implements Model.
func (m *SnapModel) Key(b []byte, s sim.State) []byte {
	st := s.(*core.State)
	return append(b, byte(st.Pif), byte(st.Par+2), byte(st.L), byte(st.Count),
		boolByte(st.Fok), byte(st.Msg))
}

// Render implements Model.
func (m *SnapModel) Render(p int, s sim.State) string {
	st := s.(*core.State)
	return fmt.Sprintf("p%d{%v par=%d L=%d cnt=%d fok=%v m=%d}",
		p, st.Pif, st.Par, st.L, st.Count, st.Fok, st.Msg)
}

// SelfStabModel adapts the self-stabilizing baseline to the checker. Its
// check is expected to FAIL safety: the checker synthesizes the concrete
// corrupted configuration and schedule under which the baseline's first
// wave completes undelivered — the paper's motivating counterexample,
// produced automatically.
type SelfStabModel struct {
	g  *graph.Graph
	pr *selfstab.Protocol
}

var _ Model = (*SelfStabModel)(nil)

// NewSelfStabModel builds the baseline model for g rooted at root.
func NewSelfStabModel(g *graph.Graph, root int) (*SelfStabModel, error) {
	pr, err := selfstab.New(g, root)
	if err != nil {
		return nil, err
	}
	return &SelfStabModel{g: g, pr: pr}, nil
}

// Proto implements Model.
func (m *SelfStabModel) Proto() sim.Protocol { return m.pr }

// Graph implements Model.
func (m *SelfStabModel) Graph() *graph.Graph { return m.g }

// Root implements Model.
func (m *SelfStabModel) Root() int { return m.pr.Root }

// Domain implements Model: Pif × Par × L × message-bit.
func (m *SelfStabModel) Domain(p int) []sim.State {
	parents, levels := parLevels(m.g, m.pr.Root, m.pr.Lmax, p, selfstab.ParNone)
	var out []sim.State
	for _, pif := range []selfstab.Phase{selfstab.B, selfstab.F, selfstab.C} {
		for _, par := range parents {
			for _, l := range levels {
				for _, msg := range []uint64{0, 1} {
					out = append(out, selfstab.State{Pif: pif, Par: par, L: l, Msg: msg})
				}
			}
		}
	}
	return out
}

// Kind implements Model.
func (m *SelfStabModel) Kind(_, a int) ActionKind {
	return kindOf(a, selfstab.ActionB, selfstab.ActionF)
}

// Msg implements Model.
func (m *SelfStabModel) Msg(s sim.State) uint64 { return s.(selfstab.State).Msg }

// WithMsg implements Model.
func (m *SelfStabModel) WithMsg(s sim.State, bit uint64) sim.State {
	st := s.(selfstab.State)
	st.Msg = bit
	return st
}

// Clean implements Model.
func (m *SelfStabModel) Clean(s sim.State) bool {
	return s.(selfstab.State).Pif == selfstab.C
}

// Key implements Model.
func (m *SelfStabModel) Key(b []byte, s sim.State) []byte {
	st := s.(selfstab.State)
	return append(b, byte(st.Pif), byte(st.Par+2), byte(st.L), byte(st.Msg))
}

// Render implements Model.
func (m *SelfStabModel) Render(p int, s sim.State) string {
	st := s.(selfstab.State)
	return fmt.Sprintf("p%d{%v par=%d L=%d m=%d}", p, st.Pif, st.Par, st.L, st.Msg)
}

// GuardsAreExclusive implements ExclusiveGuards: Algorithms 1 and 2 have
// pairwise exclusive guards, and the checker verifies that over every
// reachable state.
func (m *SnapModel) GuardsAreExclusive() bool { return true }

// GuardsAreExclusive implements ExclusiveGuards for the baseline.
func (m *SelfStabModel) GuardsAreExclusive() bool { return true }

// Invariant implements StateInvariant: the paper's Properties 1–2 plus the
// variable domains, evaluated on every reachable state during exhaustive
// exploration.
func (m *SnapModel) Invariant(c *sim.Configuration) error {
	if err := check.Domains(c, m.pr); err != nil {
		return err
	}
	if err := check.Property1(c, m.pr); err != nil {
		return err
	}
	return check.Property2(c, m.pr)
}
