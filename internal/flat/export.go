package flat

import "snappif/internal/core"

// This file is the flat kernel's surface for sibling engines: internal/event
// reuses the SoA configuration, the CSR adjacency, and the guard/action
// kernels verbatim, so the discrete-event scheduler is a third *scheduling*
// semantics over the same single-step semantics — not a third copy of the
// protocol. Everything here is a zero-cost wrapper over the package-private
// hot-path primitives; the wrappers carry the same hotpath annotations so
// snapvet's allocation budget follows the calls across the package boundary.

// NoAction is the guard cache's "no enabled action" sentinel, the exported
// counterpart of the kernel-internal noAction.
const NoAction = noAction

// EnabledAction evaluates p's guards on c and returns the enabled action ID
// or NoAction. The PIF guards are mutually exclusive, so the result is the
// whole enabled set of p.
//
//snapvet:hotpath
func (k *Protocol) EnabledAction(c *Config, p int) int32 { return k.enabledAction(c, p) }

// Apply stages p's action a: dst receives p's next state, computed from the
// pre-step slices of c. The caller owns commit ordering (composite
// atomicity: stage everything, then scatter-commit).
//
//snapvet:hotpath
func (k *Protocol) Apply(c *Config, p int, a int32, dst *core.State) { k.apply(c, p, a, dst) }

// Neighbors returns p's CSR adjacency slice (ascending IDs, shared immutable
// storage — callers must not modify it).
//
//snapvet:hotpath
func (c *Config) Neighbors(p int) []int32 { return c.neighbors(p) }

// SetStateHot scatter-commits one staged state, the exported counterpart of
// the commit loop's setStateHot.
//
//snapvet:hotpath
func (c *Config) SetStateHot(p int32, s *core.State) { c.setStateHot(p, s) }

// Phase reads p's phase register without gathering the full state.
//
//snapvet:hotpath
func (c *Config) Phase(p int) core.Phase { return core.Phase(c.pif[p]) }

// Msg reads p's payload register without gathering the full state.
//
//snapvet:hotpath
func (c *Config) Msg(p int) uint64 { return c.msg[p] }

// EnabledCount returns the number of currently enabled processors — the
// runner's own incremental count, maintained by refresh.
func (r *Runner) EnabledCount() int { return r.enabledCount }

// EnabledActionOf returns p's cached enabled action or NoAction (the engine
// seam's Runner.EnabledAction).
func (r *Runner) EnabledActionOf(p int) int32 { return r.acts[p] }

// CensusDeltas converts one step's per-action move counts (cur − prev) into
// phase-census deltas for the telemetry hook; see censusDeltas. Exported for
// engines that share the flat kernel's action table.
func CensusDeltas(cur, prev []int, rootAct int, rootBefore, rootAfter core.Phase) (db, df, dc int) {
	return censusDeltas(cur, prev, rootAct, rootBefore, rootAfter)
}
