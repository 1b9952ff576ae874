package flat

import (
	"fmt"
	"math/rand"

	"snappif/internal/bitset"
	"snappif/internal/core"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// Options configures a flat-engine run. The embedded sim.Options keep their
// meaning and defaults — a flat run with zero-value extras is parameterized
// exactly like the generic run it mirrors.
type Options struct {
	sim.Options

	// Telemetry, when non-nil, receives the per-step aggregation hook plus
	// the guard-evaluation and apply tallies. A nil value keeps the step
	// path free of any telemetry cost beyond one pointer check.
	Telemetry *telemetry.Telemetry

	// TelemetryMeta labels the run for the telemetry flight recorder and
	// metadata stamps. NewRunner fills G, Engine, Daemon, and NextMsg when
	// unset; protocol parameters and seeds are the caller's to stamp.
	TelemetryMeta telemetry.RunMeta
}

// Run executes the kernel on configuration c (mutated in place) under daemon
// d until a terminal configuration, the stop predicate, or the step limit —
// the flat counterpart of sim.Run, with the same error contract.
func Run(c *Config, k *Protocol, d sim.Daemon, opts Options) (sim.Result, error) {
	r, err := NewRunner(c, k, d, opts)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Drive(r)
}

// Runner is the flat engine's stepping loop. It reproduces sim.Runner's
// observable behavior bit for bit — same daemon inputs and RNG draw
// sequence, same moves/rounds/fairness forcing, same observer callback order
// — while keeping per-step work proportional to the step's activity:
//
//   - The enabled set lives in a hierarchical bitset plus a per-processor
//     action slot; only the executed processors' closed neighborhoods are
//     re-evaluated (guards are local), and the choice buffer rebuild skips
//     empty bitset regions.
//   - Fairness ages are virtual: lastReset[p] records the step at which p's
//     age was last zeroed, so aging costs nothing per step instead of the
//     generic runner's Θ(N) sweep (the generic and virtual ages agree at
//     every step the age is consulted; the differential grid exercises the
//     forced path).
//   - Round accounting is incremental: a pending counter is decremented as
//     executed or newly disabled processors leave the round, replacing the
//     generic runner's per-step Θ(N/64) bitset intersection.
//   - Per-step scratch bitsets are cleared by replaying the ID lists that
//     set them, never by wholesale resets.
type Runner struct {
	c    *Config
	k    *Protocol
	d    sim.Daemon
	opts Options
	rng  *rand.Rand

	names []string
	res   sim.Result
	rs    sim.RunState

	// Guard cache: acts[p] is p's enabled action or noAction; enabled is the
	// corresponding processor set; buf is the flat choice list in ascending
	// processor order, rebuilt only after a change.
	acts     []int32
	enabled  *bitset.Hier
	buf      []sim.Choice
	bufValid bool

	// Selection scratch, mirroring sim.Runner's buffers.
	daemonBuf []sim.Choice
	selBuf    []sim.Choice
	have      bitset.Bits

	// lastReset[p] is the completed-step count at which p's fairness age was
	// last reset; p's age after step S is S - lastReset[p].
	lastReset []int

	// Round accounting: pending holds the processors still owing the current
	// round an action, pendingCount its cardinality. enabledCount mirrors
	// the enabled bitset's cardinality incrementally, so the telemetry path
	// never pays a per-step popcount over N bits.
	pending      bitset.Bits
	pendingCount int
	enabledCount int

	// Refresh scratch: dirtyBuf lists the step's re-evaluated processors,
	// scratch dedups it.
	scratch  bitset.Bits
	dirtyBuf []int32

	// stage[i] is selection entry i's next state, computed from the pre-step
	// slices and scatter-committed after the whole selection is staged.
	stage []core.State

	// actionMoves counts executions per action ID; Result materializes the
	// MovesPerAction map from it lazily, keeping the per-move hot path free
	// of map assignments (a measurable cost at large N). actPrev is the
	// telemetry path's pre-step snapshot of actionMoves, diffed after the
	// move loop into the step's per-action counts for censusDeltas.
	actionMoves []int
	actPrev     []int

	// packBuf is the telemetry path's pre-packed copy of the step's
	// selection (telemetry.PackChoice layout), built inside the commit
	// loop and handed to the flight recorder by swap; see StepInfo.Packed.
	packBuf []uint32

	// mirror, when non-nil, is a boxed sim.Configuration kept equal to c
	// after every step (only executed processors change, so updating their
	// boxes suffices). It is what observers, stop predicates, and
	// state-reading daemons see. facade is the configuration handed to the
	// daemon: the mirror when one is maintained, otherwise a states-less
	// shell (every stock daemon reads only topology).
	mirror *sim.Configuration
	facade *sim.Configuration

	// Telemetry wiring: telSrc adapts the flat configuration for flight
	// checkpoints; guardHits/guardMisses are per-step refresh tallies
	// (re-evaluated guards whose action was unchanged vs. changed).
	tel         *telemetry.Telemetry
	telSrc      *telSource
	guardHits   int64
	guardMisses int64

	finished bool
	err      error
}

// telSource adapts Config to telemetry.StateSource (the flat canonical
// encoder is infallible, unlike the boxed one).
type telSource struct{ c *Config }

func (s *telSource) N() int { return s.c.N() }

func (s *telSource) AppendCanonical(b []byte) ([]byte, error) { return s.c.AppendCanonical(b), nil }

func (s *telSource) Census() (b, f, cl int) { return s.c.Census() }

// NewRunner prepares a flat run of kernel k on configuration c (mutated in
// place) under daemon d. A mirror boxed configuration is maintained exactly
// when observers or a stop predicate need one; mutating observers are
// rejected — they would desync the mirror from the flat state (use the
// generic engine for mid-run fault injection).
func NewRunner(c *Config, k *Protocol, d sim.Daemon, opts Options) (*Runner, error) {
	if c.N() != k.g.N() {
		return nil, fmt.Errorf("flat: configuration has %d processors, kernel network %d", c.N(), k.g.N())
	}
	for _, o := range opts.Observers {
		if mo, ok := o.(sim.MutatingObserver); ok && mo.MutatesConfiguration() {
			return nil, fmt.Errorf("flat: mutating observers are not supported (observer %T)", o)
		}
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 1_000_000
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.FairnessAge <= 0 {
		opts.FairnessAge = 4 * c.N()
	}
	n := c.N()
	r := &Runner{
		c:    c,
		k:    k,
		d:    d,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),

		names:     k.names,
		acts:      make([]int32, n),
		enabled:   bitset.NewHier(n),
		have:      bitset.New(n),
		lastReset: make([]int, n),
		pending:   bitset.New(n),
		scratch:   bitset.New(n),
		stage:     make([]core.State, n),

		actionMoves: make([]int, len(k.names)),
		actPrev:     make([]int, len(k.names)),
	}
	r.res = sim.Result{MovesPerAction: make(map[string]int, len(r.names))}

	if len(opts.Observers) > 0 || opts.StopWhen != nil {
		r.mirror = c.ToSim()
		r.facade = r.mirror
	} else {
		r.facade = &sim.Configuration{G: c.G}
	}
	r.rs = sim.RunState{Config: r.mirror}

	if opts.StopWhen != nil && opts.StopWhen(&r.rs) {
		r.res.Stopped = true
		r.finish()
		return r, nil
	}

	for p := 0; p < n; p++ {
		a := k.enabledAction(c, p)
		r.acts[p] = a
		if a != noAction {
			r.enabled.Set(p)
		}
	}
	r.pending.CopyFrom(r.enabled.Words())
	r.enabledCount = r.enabled.Count()
	r.pendingCount = r.enabledCount

	if opts.Telemetry.Enabled() {
		r.tel = opts.Telemetry
		r.telSrc = &telSource{c: c}
		meta := opts.TelemetryMeta
		if meta.G == nil {
			meta.G = c.G
		}
		if meta.Engine == "" {
			meta.Engine = "flat"
		}
		if meta.Daemon == "" {
			meta.Daemon = d.Name()
		}
		// The kernel's resolved parameters are authoritative; non-default
		// bounds are recorded as explicit scenario overrides.
		meta.Root = k.Root
		if k.Lmax != c.N()-1 {
			meta.Lmax = k.Lmax
		}
		if k.NPrime != c.N() {
			meta.NPrime = k.NPrime
		}
		if meta.NextMsg == nil {
			meta.NextMsg = k.NextMsg
		}
		r.tel.BeginRun(meta, r.telSrc)
	}
	return r, nil
}

// Result returns the run summary accumulated so far. Final is materialized
// when the run ends; before that it is nil (the live state is the flat
// configuration). MovesPerAction is materialized from the per-action
// counters on each call — like the generic engine's map, it has a key for
// exactly the actions that executed at least once.
func (r *Runner) Result() sim.Result {
	for a, n := range r.actionMoves {
		if n != 0 {
			r.res.MovesPerAction[r.names[a]] = n
		}
	}
	return r.res
}

// Mirror returns the boxed configuration kept in sync with the flat state,
// or nil when no observers or stop predicate requested one. Callers wiring
// a tracer (obs.Tracer.BeginRun wants the live configuration it will
// snapshot at Close) hand it the mirror, exactly as they hand the generic
// engine its configuration.
func (r *Runner) Mirror() *sim.Configuration { return r.mirror }

// finish seals the run and materializes Result.Final.
//
//snapvet:coldpath runs once when the run terminates, not per step
func (r *Runner) finish() {
	r.finished = true
	if r.mirror != nil {
		r.res.Final = r.mirror
	} else {
		r.res.Final = r.c.ToSim()
	}
}

// Step executes one computation step, with sim.Runner.Step's exact contract
// and observable behavior.
//
//snapvet:hotpath
func (r *Runner) Step() (done bool, err error) {
	if r.finished {
		return true, r.err
	}
	stepStart := r.tel.Now() // 0 when telemetry or timing is off
	var rootBefore core.Phase
	if r.tel != nil {
		rootBefore = core.Phase(r.c.pif[r.k.Root])
		r.guardHits, r.guardMisses = 0, 0
	}
	enabled := r.choices()
	if len(enabled) == 0 {
		r.res.Terminal = true
		r.finish()
		return true, nil
	}
	if r.res.Steps >= r.opts.MaxSteps {
		//snapvet:ok cold step-limit failure path, allocation acceptable
		r.err = fmt.Errorf("sim: %s under %s after %d steps (%d rounds): %w",
			r.k.Name(), r.d.Name(), r.res.Steps, r.res.Rounds, sim.ErrStepLimit) //snapvet:ok cold step-limit failure path, allocation acceptable
		r.finish()
		return true, r.err
	}

	// Selection: the daemon gets its own copy (it may filter in place), the
	// final set accumulates in selBuf — same buffers, same RNG draw sequence
	// as the generic runner.
	r.daemonBuf = append(r.daemonBuf[:0], enabled...)
	selected := r.d.Select(r.res.Steps, r.facade, r.daemonBuf, r.rng)
	r.selBuf = append(r.selBuf[:0], selected...)
	r.selBuf = r.forceAged(r.selBuf, enabled)
	if len(r.selBuf) == 0 {
		// Defensive: a daemon must select at least one processor.
		r.selBuf = append(r.selBuf, enabled[r.rng.Intn(len(enabled))])
	}
	selected = r.selBuf

	// Execute: stage every next state from the pre-step slices, then
	// scatter-commit. Composite atomicity, distributed daemon.
	var commitStart int64
	if r.tel.DetailTiming() {
		commitStart = r.tel.Now()
	}
	for i, ch := range selected {
		r.k.apply(r.c, ch.Proc, int32(ch.Action), &r.stage[i])
	}
	if r.tel != nil {
		r.tel.Applies(int64(len(selected)))
	}
	packed := false
	if r.tel != nil {
		packed = r.tel.WantPacked()
	}
	if packed {
		// The flight recorder will take this buffer by swap (see
		// StepInfo.Packed), so the schedule is packed here rather than
		// re-read by the recorder after the selection has left the cache.
		// Fusing the sequential 4-byte stores into the scatter-write commit
		// loop hides them behind its latency-bound state writes. Sizing
		// mirrors the recorder's own 2× headroom so growing selections do
		// not re-allocate every step.
		n := len(selected)
		if cap(r.packBuf) < n {
			r.packBuf = make([]uint32, n, 2*n) //snapvet:ok amortized buffer growth, recycled via recorder swap
		} else {
			r.packBuf = r.packBuf[:n]
		}
		for i, ch := range selected {
			r.c.setStateHot(int32(ch.Proc), &r.stage[i])
			r.packBuf[i] = telemetry.PackChoice(ch.Proc, ch.Action)
		}
	} else {
		for i, ch := range selected {
			r.c.setStateHot(int32(ch.Proc), &r.stage[i])
		}
	}
	var commitNS int64
	if commitStart > 0 {
		commitNS = r.tel.Now() - commitStart
	}
	var db, df, dc int
	if r.tel != nil {
		copy(r.actPrev, r.actionMoves)
	}
	for _, ch := range selected {
		r.res.Moves++
		r.actionMoves[ch.Action]++
	}
	if r.tel != nil {
		// Telemetry census deltas derive from the step's per-action move
		// counts: every non-root action has a static phase transition (the
		// guards pin the from-phase, the statements the to-phase), so the
		// deltas cost O(#actions) per step, not O(moves). The root — whose
		// B-correction transition is not static — is fixed up from its
		// observed before/after phases. Its move is found by rescanning the
		// selection, gated on the pre-step enabled bit (refresh has not run
		// yet): the root is quiescent on almost every step of a large run,
		// so the common case pays one bitset test, not a per-move compare.
		root := r.k.Root
		rootAct := -1
		if r.enabled.Test(root) {
			for _, ch := range selected {
				if ch.Proc == root {
					rootAct = ch.Action
					break
				}
			}
		}
		db, df, dc = censusDeltas(r.actionMoves, r.actPrev, rootAct, rootBefore, core.Phase(r.c.pif[root]))
	}
	r.res.Steps++
	r.rs.Steps, r.rs.Moves = r.res.Steps, r.res.Moves
	steps := r.res.Steps

	// Executed processors leave the round and restart their fairness age
	// (the generic runner does both at the end of the step; nothing below
	// consults them in between).
	for _, ch := range selected {
		r.lastReset[ch.Proc] = steps
		if r.pending.Test(ch.Proc) {
			r.pending.Clear(ch.Proc)
			r.pendingCount--
		}
	}

	if r.mirror != nil {
		for i, ch := range selected {
			*(r.mirror.States[ch.Proc].(*core.State)) = r.stage[i]
		}
	}
	for _, o := range r.opts.Observers {
		o.OnStep(steps, selected, r.mirror)
	}

	var evalStart int64
	if r.tel.DetailTiming() {
		evalStart = r.tel.Now()
	}
	r.refresh(selected)
	var evalNS int64
	if evalStart > 0 {
		evalNS = r.tel.Now() - evalStart
	}

	for _, o := range r.opts.Observers {
		if eo, ok := o.(sim.EnabledObserver); ok {
			eo.OnEnabled(steps, r.enabledCount)
		}
	}

	if r.tel != nil {
		r.telStep(steps, selected, packed, rootBefore, db, df, dc, stepStart, evalNS, commitNS)
	}

	// Round boundary: every processor pending since the round started has
	// now executed or been disabled.
	if r.pendingCount == 0 {
		r.res.Rounds++
		r.rs.Rounds = r.res.Rounds
		for _, o := range r.opts.Observers {
			if ro, ok := o.(sim.RoundObserver); ok {
				ro.OnRound(r.res.Rounds, r.mirror)
			}
		}
		r.pending.CopyFrom(r.enabled.Words())
		r.pendingCount = r.enabledCount
	}

	// Clear the fairness dedup marks set this step (selBuf covers them).
	for _, ch := range selected {
		r.have.Clear(ch.Proc)
	}

	if r.opts.StopWhen != nil && r.opts.StopWhen(&r.rs) {
		r.res.Stopped = true
		r.finish()
		return true, nil
	}
	return false, nil
}

// censusDeltas converts one step's per-action move counts (cur − prev) into
// phase-census deltas. Every non-root action has a static phase transition:
// the guard pins the from-phase (Broadcast needs C, Feedback and AbnormalB
// need B, Cleaning and AbnormalF need F) and the statement the to-phase;
// Fok- and Count-action never change the phase. The root deviates only in
// B-correction (root: →C from any abnormal phase; non-root: B→F), so the
// root's move — if any — is re-counted from its observed before/after
// phases. Cross-validated against the generic engine's per-move census in
// the telemetry package's engine-agreement test.
func censusDeltas(cur, prev []int, rootAct int, rootBefore, rootAfter core.Phase) (db, df, dc int) {
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

// telStep assembles and delivers the step's StepInfo. Split out of Step so
// the telemetry-off path never executes it, and so the hotalloc analyzer's
// per-function scope keeps Step itself literal-free.
func (r *Runner) telStep(step int, selected []sim.Choice, packed bool, rootBefore core.Phase, db, df, dc int, startNS, evalNS, commitNS int64) {
	root := r.k.Root
	var stepNS int64
	if startNS > 0 {
		stepNS = r.tel.Now() - startNS
	}
	var packedBuf *[]uint32
	if packed {
		packedBuf = &r.packBuf
	}
	r.tel.Step(telemetry.StepInfo{
		Step:        step,
		Executed:    selected,
		Packed:      packedBuf,
		Enabled:     r.enabledCount,
		Rounds:      r.res.Rounds,
		RootBefore:  rootBefore,
		RootAfter:   core.Phase(r.c.pif[root]),
		RootMsg:     r.c.msg[root],
		NextMsg:     r.k.NextMsg(),
		DB:          db,
		DF:          df,
		DC:          dc,
		GuardHits:   r.guardHits,
		GuardMisses: r.guardMisses,
		EvalNS:      evalNS,
		CommitNS:    commitNS,
		StepNS:      stepNS,
	}, r.telSrc)
}

// choices returns the enabled list in ascending processor order, rebuilding
// the reusable buffer only after a refresh changed some processor's action.
//
//snapvet:hotpath
func (r *Runner) choices() []sim.Choice {
	if r.bufValid {
		return r.buf
	}
	r.buf = r.buf[:0]
	r.enabled.ForEach(func(p int) { //snapvet:ok non-escaping closure over r, stack-allocated (proved by the CI alloc gates)
		r.buf = append(r.buf, sim.Choice{Proc: p, Action: int(r.acts[p])})
	})
	r.bufValid = true
	return r.buf
}

// Enabled returns a copy of the currently enabled choices in ascending
// processor order: before the first Step the initial configuration's, after
// a Step the post-step configuration's (the refresh runs as part of the
// step's commit, so this is the engine's own incremental view, not a
// recomputation). Mirrors sim.Runner.Enabled for the exhaustive explorer.
func (r *Runner) Enabled() []sim.Choice {
	src := r.choices()
	out := make([]sim.Choice, len(src))
	copy(out, src)
	return out
}

// forceAged is sim.Runner.forceAged over virtual ages: it appends every
// enabled processor whose age reached the fairness bound, at most once per
// processor. The enabled list has exactly one choice per processor (the PIF
// guards are mutually exclusive), so each forced processor consumes one RNG
// draw — exactly the generic runner's per-group Intn(1) — keeping the
// engines' draw sequences aligned.
//
//snapvet:hotpath
func (r *Runner) forceAged(selected, enabled []sim.Choice) []sim.Choice {
	for _, ch := range selected {
		r.have.Set(ch.Proc)
	}
	bound := r.opts.FairnessAge
	steps := r.res.Steps
	for i := range enabled {
		proc := enabled[i].Proc
		if steps-r.lastReset[proc] >= bound && !r.have.Test(proc) {
			selected = append(selected, enabled[i+r.rng.Intn(1)])
			r.have.Set(proc)
		}
	}
	return selected
}

// refresh re-evaluates the guards of the executed processors' closed
// neighborhoods (guards are local) and commits the changes: enabled bitset
// and action slots, choice-buffer invalidation, round departures of newly
// disabled processors, and age restarts of newly enabled ones. Guards read
// only the post-commit state slices, which the loop never writes, so each
// processor is evaluated and committed in one pass.
//
//snapvet:hotpath
func (r *Runner) refresh(selected []sim.Choice) {
	r.dirtyBuf = r.dirtyBuf[:0]
	for _, ch := range selected {
		if !r.scratch.Test(ch.Proc) {
			r.scratch.Set(ch.Proc)
			r.dirtyBuf = append(r.dirtyBuf, int32(ch.Proc))
		}
		for _, q := range r.c.neighbors(ch.Proc) {
			if !r.scratch.Test(int(q)) {
				r.scratch.Set(int(q))
				r.dirtyBuf = append(r.dirtyBuf, q)
			}
		}
	}
	if r.tel != nil {
		r.tel.Evals(int64(len(r.dirtyBuf)))
	}

	steps := r.res.Steps
	for _, p32 := range r.dirtyBuf {
		p := int(p32)
		r.scratch.Clear(p)
		a := r.k.enabledAction(r.c, p)
		old := r.acts[p]
		if a == old {
			// A re-evaluation that confirmed the cached action: the guard
			// cache's hit case (tallies feed telemetry; dead ints otherwise).
			r.guardHits++
			continue
		}
		r.guardMisses++
		r.acts[p] = a
		r.bufValid = false
		switch {
		case a == noAction:
			// Enabled → disabled: the disable action; p leaves the round.
			r.enabled.Clear(p)
			r.enabledCount--
			if r.pending.Test(p) {
				r.pending.Clear(p)
				r.pendingCount--
			}
		case old == noAction:
			// Disabled → enabled: the generic runner's aging loop gives p
			// age 1 at the end of this step (enabled, not executed — an
			// executed processor is enabled before the step, so never takes
			// this transition).
			r.enabled.Set(p)
			r.enabledCount++
			r.lastReset[p] = steps - 1
		}
	}
}
