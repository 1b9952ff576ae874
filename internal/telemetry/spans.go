package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"snappif/internal/obs"
)

// Span is one causal PIF wave span: the root's broadcast start (C→B),
// feedback completion (B→F), and cleaning completion (→C), in both logical
// time (steps, rounds) and — when a clock is attached — wall time.
type Span struct {
	// Wave is the 1-based wave number.
	Wave int
	// Msg is the wave's payload stamp (the root's Msg register during the
	// wave).
	Msg uint64
	// StartStep, FeedbackStep, EndStep are the committed step indices of
	// the three root transitions. FeedbackStep is 0 when the trace carries
	// no phase events or the span is still open.
	StartStep, FeedbackStep, EndStep int
	// StartRound, EndRound are the 1-based rounds in progress at start and
	// end.
	StartRound, EndRound int
	// StartNS, FeedbackNS, EndNS are wall-clock nanosecond stamps (0
	// without a clock).
	StartNS, FeedbackNS, EndNS int64
	// Abnormal reports broadcast/feedback leftovers from corruption or an
	// earlier aborted wave were present when this wave started; AbnProcs is
	// how many.
	Abnormal bool
	AbnProcs int
	// Open reports the wave had not completed when the run (or trace)
	// ended; EndStep/EndRound/EndNS are then unset.
	Open bool
}

// Rounds is the number of rounds the wave spanned (0 while open).
func (s Span) Rounds() int {
	if s.Open {
		return 0
	}
	return s.EndRound - s.StartRound + 1
}

// Steps is the number of steps the wave spanned (0 while open).
func (s Span) Steps() int {
	if s.Open {
		return 0
	}
	return s.EndStep - s.StartStep + 1
}

// traceEvent is one Chrome trace_event entry. Fields marshal in
// declaration order and args maps marshal with sorted keys, so the export
// is byte-stable for golden tests.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the trace_event JSON object format's top level.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// spanTimes maps a span onto the export's microsecond timeline: wall-clock
// µs when stamps are present, the step index as one virtual µs per step
// otherwise (Perfetto needs monotone numbers, not real time).
func spanTimes(s Span) (start, feedback, end int64, wall bool) {
	if s.StartNS > 0 {
		start = s.StartNS / 1000
		feedback = s.FeedbackNS / 1000
		end = s.EndNS / 1000
		return start, feedback, end, true
	}
	return int64(s.StartStep), int64(s.FeedbackStep), int64(s.EndStep), false
}

// WriteTraceEvents renders spans as Chrome trace_event JSON (the format
// chrome://tracing and Perfetto load directly): one complete ("X") event
// per wave on the wave track, nested broadcast/feedback+clean sub-events
// when the feedback transition is known, and an abnormal-leftovers track
// marking waves that started over corruption debris. Open spans export as
// zero-duration instants.
func WriteTraceEvents(w io.Writer, name string, spans []Span) error {
	evs := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]any{"name": name}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "pif-waves"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 2, Args: map[string]any{"name": "abnormal"}},
	}
	for _, s := range spans {
		start, feedback, end, wall := spanTimes(s)
		args := map[string]any{
			"wave":   s.Wave,
			"msg":    fmt.Sprintf("%d", s.Msg),
			"rounds": s.Rounds(),
			"steps":  s.Steps(),
			"wall":   wall,
		}
		if s.Abnormal {
			args["abn_procs"] = s.AbnProcs
		}
		label := fmt.Sprintf("wave %d", s.Wave)
		if s.Open {
			evs = append(evs, traceEvent{Name: label + " (open)", Ph: "i", TS: start, Pid: 1, Tid: 1, S: "t", Args: args})
			continue
		}
		evs = append(evs, traceEvent{Name: label, Ph: "X", TS: start, Dur: end - start, Pid: 1, Tid: 1, Args: args})
		if s.FeedbackStep > 0 && feedback >= start && feedback <= end {
			evs = append(evs,
				traceEvent{Name: "broadcast", Ph: "X", TS: start, Dur: feedback - start, Pid: 1, Tid: 1},
				traceEvent{Name: "feedback+clean", Ph: "X", TS: feedback, Dur: end - feedback, Pid: 1, Tid: 1},
			)
		}
		if s.Abnormal {
			evs = append(evs, traceEvent{
				Name: fmt.Sprintf("abnormal(%d)", s.AbnProcs), Ph: "X", TS: start, Dur: end - start,
				Pid: 1, Tid: 2, Args: map[string]any{"abn_procs": s.AbnProcs},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// SpansFromTrace reconstructs wave spans from a decoded obs JSONL trace:
// wave start/end events bound each span, the root's B→F phase event inside
// it marks feedback completion, and abn round samples inside it flag
// abnormal leftovers. Traces carry no wall time, so the spans are logical
// (steps and rounds) only.
func SpansFromTrace(tr *obs.Trace) ([]Span, error) {
	if tr.Meta == nil {
		return nil, fmt.Errorf("telemetry: trace has no meta header (wave spans need the root)")
	}
	root := tr.Meta.Root
	var spans []Span
	var cur *Span
	for _, ev := range tr.Events {
		switch ev.T {
		case "wave":
			switch ev.Kind {
			case "start":
				if cur != nil {
					cur.Open = true
					spans = append(spans, *cur)
				}
				cur = &Span{
					Wave:       ev.Wave,
					StartStep:  ev.I,
					StartRound: ev.Round,
				}
				cur.Msg, _ = strconv.ParseUint(ev.M, 10, 64)
			case "end":
				if cur == nil {
					continue
				}
				cur.EndStep = ev.I
				cur.EndRound = ev.Round
				spans = append(spans, *cur)
				cur = nil
			}
		case "phase":
			if cur != nil && ev.P == root && ev.From == "B" && ev.To == "F" {
				cur.FeedbackStep = ev.I
			}
		case "abn":
			if cur != nil && ev.Abn > 0 && ev.Round >= cur.StartRound {
				cur.Abnormal = true
				if ev.Abn > cur.AbnProcs {
					cur.AbnProcs = ev.Abn
				}
			}
		case "fault":
			// Corruption mid-wave aborts the causal span: close it as open.
			if cur != nil {
				cur.Open = true
				spans = append(spans, *cur)
				cur = nil
			}
		}
	}
	if cur != nil {
		cur.Open = true
		spans = append(spans, *cur)
	}
	return spans, nil
}
