// Package obs is the observability layer of the repository: a structured
// JSONL event tracer for simulation and concurrent-runtime runs — the one
// step trace, from which offline replay rebuilds a run — a small metrics
// registry (counters, histograms, text) exported via expvar, and the
// decoder the piftrace analysis CLI is built on.
//
// # Event traces
//
// A trace is a stream of JSON objects, one per line, each carrying a "t"
// discriminator. The kinds, in the order they normally appear:
//
//	meta    trace header: schema version, protocol and action names, the
//	        topology (name, N, root, full edge list), protocol parameters
//	        (Lmax, N'), daemon name, seed. Written once, first.
//	run     start of one sim.Run segment (a Network may run many waves
//	        over the same tracer; step indices restart per segment).
//	init    full per-processor state snapshot at the start of a segment
//	        (after any initial corruption) — what offline replay starts
//	        from.
//	fault   a fault injection, with the post-injection snapshot.
//	step    one committed computation step: index plus the executed
//	        (processor, action) pairs.
//	phase   one processor's PIF phase transition (B/F/C) during a step.
//	wave    a PIF wave boundary observed at the root: "start" when the
//	        root's B-action opens a broadcast, "end" when the root returns
//	        to clean.
//	round   a round boundary (per the paper's round definition).
//	abn     the abnormal-processor count, sampled at each round boundary.
//	action  one action execution in the concurrent runtime (globally
//	        sequenced; the runtime has no step/round structure).
//	final   full state snapshot at Close time.
//	summary totals: steps, moves, rounds, waves, moves per action.
//
// Payload registers (Msg) are encoded as decimal strings: they are uint64
// values that may exceed 2^53, which JSON numbers cannot carry exactly.
//
// # Overhead contract
//
// A disabled Tracer is free: every callback returns after one nil/bool
// check, performing zero heap allocations — the simulation engine's
// zero-allocation step contract holds with a disabled tracer attached
// (asserted by TestDisabledTracerZeroAllocs, gated in CI). An enabled
// tracer encodes events into recycled buffers and hands them to a
// ring-buffered background writer; producers block only when the ring is
// full (traces are complete — no sampling, no silent drops).
package obs

// SchemaVersion identifies the trace wire format; bump on incompatible
// changes to the event schema.
const SchemaVersion = 1
