package core_test

// Golden-trace regression pin: the protocol is deterministic under the
// synchronous daemon, so the exact action sequence of a clean cycle on a
// fixed small network is a semantic fingerprint. If an edit to the guards
// or statements changes scheduling-visible behavior in any way, this test
// fails with a readable diff — catching accidental semantic drift that
// aggregate assertions (delivery, bounds) might absorb.

import (
	"fmt"
	"strings"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// goldenLine4 is the full per-step action log of one synchronous clean
// cycle on the 4-processor line rooted at an end. Note steps 13–14: the
// cleaning phase runs in parallel with — one hop behind — the feedback
// phase, exactly as Section 3.1 describes; and the Fok relay (steps 8–10)
// only starts once the root's count completed at step 7.
const goldenLine4 = `step    1: p0:B-action
step    2: p1:B-action
step    3: p0:Count-action p2:B-action
step    4: p1:Count-action p3:B-action
step    5: p0:Count-action p2:Count-action
step    6: p1:Count-action
step    7: p0:Count-action
step    8: p1:Fok-action
step    9: p2:Fok-action
step   10: p3:Fok-action
step   11: p3:F-action
step   12: p2:F-action
step   13: p1:F-action p3:C-action
step   14: p0:F-action p2:C-action
step   15: p1:C-action
step   16: p0:C-action
`

func TestGoldenSynchronousCycle(t *testing.T) {
	g, err := graph.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	log := &stepLog{names: pr.ActionNames()}
	obs := check.NewCycleObserver(pr)
	if _, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
		Observers: []sim.Observer{log, obs},
		StopWhen:  obs.StopAfterCycles(1),
	}); err != nil {
		t.Fatal(err)
	}
	if got := log.b.String(); got != goldenLine4 {
		t.Fatalf("synchronous cycle diverged from the golden trace.\ngot:\n%swant:\n%s", got, goldenLine4)
	}
}

// stepLog is a sim.Observer printing one line per step:
//
//	step    3: p1:B-action p4:B-action
type stepLog struct {
	names []string
	b     strings.Builder
}

// OnStep implements sim.Observer.
func (l *stepLog) OnStep(step int, executed []sim.Choice, _ *sim.Configuration) {
	fmt.Fprintf(&l.b, "step %4d:", step)
	for _, ch := range executed {
		fmt.Fprintf(&l.b, " p%d:%s", ch.Proc, l.names[ch.Action])
	}
	l.b.WriteByte('\n')
}
