package flat

import "snappif/internal/core"

// This file is the flat kernel's surface for the one runner that steps it:
// internal/event reuses the SoA configuration, the CSR adjacency, and the
// guard/action kernels verbatim, both for the flat engine (the event runner
// in external-daemon mode) and for latency-driven runs. Everything here but
// CensusDeltas is a zero-cost wrapper over the package-private hot-path
// primitives; the wrappers carry the same hotpath annotations so snapvet's
// allocation budget follows the calls across the package boundary.

// NoAction is the guard cache's "no enabled action" sentinel, the exported
// counterpart of the kernel-internal noAction.
const NoAction = noAction

// EnabledAction evaluates p's guards on c and returns the enabled action ID
// or NoAction. The PIF guards are mutually exclusive, so the result is the
// whole enabled set of p. Alongside core.ActionCount it returns the Sum_p
// the guard check computed (0 otherwise), for Stage.
//
//snapvet:hotpath
func (k *Protocol) EnabledAction(c *Config, p int) (int32, int) { return k.enabledAction(c, p) }

// Stage computes p's move a into d from the pre-step slices of c. sum is
// the Sum_p EnabledAction returned with a for the current configuration;
// only a Count-action reads it. The caller owns commit ordering
// (composite atomicity: stage every move, then commit them all).
//
//snapvet:hotpath
func (k *Protocol) Stage(c *Config, p int, a int32, sum int, d *Delta) { k.stage(c, p, a, sum, d) }

// Commit writes one staged move into c, the exported counterpart of
// commit.
//
//snapvet:hotpath
func (c *Config) Commit(d *Delta) { c.commit(d) }

// Neighbors returns p's CSR adjacency slice (ascending IDs, shared immutable
// storage — callers must not modify it).
//
//snapvet:hotpath
func (c *Config) Neighbors(p int) []int32 { return c.neighbors(p) }

// Phase reads p's phase register without gathering the full state.
//
//snapvet:hotpath
func (c *Config) Phase(p int) core.Phase { return core.Phase(c.pif[p]) }

// Msg reads p's payload register without gathering the full state.
//
//snapvet:hotpath
func (c *Config) Msg(p int) uint64 { return c.msg[p] }

// CensusDeltas converts one step's per-action move counts (cur − prev) into
// phase-census deltas for the telemetry hook. Every non-root action has a
// static phase transition: the guard pins the from-phase (Broadcast needs C,
// Feedback and AbnormalB need B, Cleaning and AbnormalF need F) and the
// statement the to-phase; Fok- and Count-action never change the phase. The
// root deviates only in B-correction (root: →C from any abnormal phase;
// non-root: B→F), so the root's move — rootAct, or -1 when the root did not
// move — is re-counted from its observed before/after phases.
// Cross-validated against the sim engine's per-move census in the telemetry
// package's engine-agreement test.
func CensusDeltas(cur, prev []int, rootAct int, rootBefore, rootAfter core.Phase) (db, df, dc int) {
	cb := cur[core.ActionB] - prev[core.ActionB]
	cf := cur[core.ActionF] - prev[core.ActionF]
	cc := cur[core.ActionC] - prev[core.ActionC]
	cbc := cur[core.ActionBCorrection] - prev[core.ActionBCorrection]
	cfc := cur[core.ActionFCorrection] - prev[core.ActionFCorrection]
	db = cb - cf - cbc
	df = cf + cbc - cc - cfc
	dc = cc + cfc - cb
	if rootAct >= 0 {
		// Remove the static table's contribution for the root's move...
		switch rootAct {
		case core.ActionB:
			db--
			dc++
		case core.ActionF:
			df--
			db++
		case core.ActionC:
			dc--
			df++
		case core.ActionBCorrection:
			df--
			db++
		case core.ActionFCorrection:
			dc--
			df++
		}
		// ...and re-add its actual transition.
		if rootBefore != rootAfter {
			switch rootBefore {
			case core.B:
				db--
			case core.F:
				df--
			default:
				dc--
			}
			switch rootAfter {
			case core.B:
				db++
			case core.F:
				df++
			default:
				dc++
			}
		}
	}
	return db, df, dc
}
