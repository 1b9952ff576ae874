package sim

import (
	"fmt"
	"math/rand"
)

// ActionPriority is a central daemon that always executes the single
// enabled choice whose action ranks best in Order (ties broken toward the
// lowest processor ID). Actions absent from Order rank last.
//
// With Order listing a protocol's "progress" actions before its correction
// actions, this daemon realizes the legal-but-nasty schedule that lets a
// live wave outrun pending error corrections — the schedule that separates
// snap-stabilizing from merely self-stabilizing PIF (experiment E4).
type ActionPriority struct {
	// Order lists action IDs from most to least preferred.
	Order []int
}

var _ Daemon = ActionPriority{}

// Name implements Daemon.
func (d ActionPriority) Name() string { return fmt.Sprintf("action-priority-%v", d.Order) }

// Select implements Daemon.
func (d ActionPriority) Select(_ int, _ *Configuration, enabled []Choice, _ *rand.Rand) []Choice {
	besti := 0
	bestRank := d.rank(enabled[0].Action)
	for i, ch := range enabled[1:] {
		if r := d.rank(ch.Action); r < bestRank {
			besti, bestRank = i+1, r
		}
	}
	return enabled[besti : besti+1]
}

func (d ActionPriority) rank(action int) int {
	for i, a := range d.Order {
		if a == action {
			return i
		}
	}
	return len(d.Order)
}

// Replay is a daemon that re-executes a recorded schedule: step i selects
// exactly the choices executed at step i of the original run (e.g. the
// step events of an obs trace). Replaying a run of a deterministic
// protocol from the same initial configuration reproduces it bit for bit
// — the debugging workflow for daemon-dependent behavior. Once the script
// is exhausted the daemon falls back to the first enabled choice.
type Replay struct {
	// Script holds the per-step executed choices of the recorded run.
	Script [][]Choice

	pos int
}

var _ Daemon = (*Replay)(nil)

// Name implements Daemon.
func (*Replay) Name() string { return "replay" }

// Select implements Daemon.
func (d *Replay) Select(_ int, _ *Configuration, enabled []Choice, _ *rand.Rand) []Choice {
	if d.pos >= len(d.Script) {
		return enabled[:1]
	}
	sel := d.Script[d.pos]
	d.pos++
	return append([]Choice(nil), sel...)
}

// Exhausted reports whether the script has been fully replayed.
func (d *Replay) Exhausted() bool { return d.pos >= len(d.Script) }
