package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"snappif/internal/telemetry"
)

// Wave is one delivered request: the PIF wave's payload, the root's
// aggregated response, and the request's virtual timeline. Latency is
// DoneT − EnqueueT: request-enqueue to feedback-complete, queueing delay
// included — the open-loop serving metric.
type Wave struct {
	Lane     int    `json:"lane"`
	Kind     string `json:"kind"`
	Msg      uint64 `json:"msg"`
	Resp     int64  `json:"resp"`
	EnqueueT int64  `json:"enqueue_t"`
	StartT   int64  `json:"start_t"`
	DoneT    int64  `json:"done_t"`
	// WallNS is the wall-clock latency (0 when Options.Clock is nil —
	// deterministic runs carry virtual latencies only).
	WallNS int64 `json:"wall_ns,omitempty"`
}

// LatencyTicks is the wave's virtual latency.
func (w Wave) LatencyTicks() int64 { return w.DoneT - w.EnqueueT }

// Report summarizes one serving run. Waves appear in delivery order:
// ascending DoneT, lanes in index order within a tick. RunSerial's shared
// loop records them that way; Run merges its per-lane reports into the
// same order, so the order — like everything else here — is deterministic.
type Report struct {
	Engine string `json:"engine"`
	Serial bool   `json:"serial,omitempty"`
	Waves  []Wave `json:"waves"`
	// Residue counts feedback-complete transitions of waves this server
	// never started: the corrupted start's abnormal trees collapsing.
	Residue int `json:"residue,omitempty"`
	// Aborts counts admitted waves swallowed by a root B-correction and
	// re-queued (only reachable from corrupted starts).
	Aborts int `json:"aborts,omitempty"`
	// Ticks is the virtual makespan to full quiescence; LastDoneT the last
	// delivery tick (throughput is measured against LastDoneT).
	Ticks     int64 `json:"ticks"`
	LastDoneT int64 `json:"last_done_t"`

	// Hist is the log₂-bucketed virtual-latency histogram — the
	// monitoring-path view; exact percentiles come from QuantileTicks.
	Hist telemetry.LogHist `json:"-"`
	// WallHist aggregates wall-clock latencies when a Clock was injected.
	WallHist telemetry.LogHist `json:"-"`
}

// record appends a delivered wave.
func (r *Report) record(w Wave) {
	r.Waves = append(r.Waves, w)
	r.Hist.Observe(w.LatencyTicks())
	if w.WallNS != 0 {
		r.WallHist.Observe(w.WallNS)
	}
	if w.DoneT > r.LastDoneT {
		r.LastDoneT = w.DoneT
	}
}

// mergeReports joins the per-lane reports of a pipelined run into the
// report one shared clock produces: waves in (DoneT, lane) order — the
// shared loop advances lanes in index order within a tick, and a lane's
// own waves keep their order — replayed through record to rebuild the
// histograms and LastDoneT; residue and aborts summed; the makespan the
// latest lane's.
func mergeReports(engine string, lanes []*Report) *Report {
	var waves []Wave
	out := &Report{Engine: engine}
	for _, r := range lanes {
		waves = append(waves, r.Waves...)
		out.Residue += r.Residue
		out.Aborts += r.Aborts
		out.Ticks = max(out.Ticks, r.Ticks)
	}
	sort.SliceStable(waves, func(i, j int) bool {
		if waves[i].DoneT != waves[j].DoneT {
			return waves[i].DoneT < waves[j].DoneT
		}
		return waves[i].Lane < waves[j].Lane
	})
	out.Waves = make([]Wave, 0, len(waves))
	for _, w := range waves {
		out.record(w)
	}
	return out
}

// Latencies returns every wave's virtual latency in delivery order.
func (r *Report) Latencies() []int64 {
	out := make([]int64, len(r.Waves))
	for i, w := range r.Waves {
		out[i] = w.LatencyTicks()
	}
	return out
}

// QuantileTicks is the exact nearest-rank q-quantile of the virtual wave
// latencies (telemetry.ExactQuantile over the full sample set).
func (r *Report) QuantileTicks(q float64) int64 {
	return telemetry.ExactQuantile(r.Latencies(), q)
}

// WavesPerKTick is the achieved virtual throughput: delivered waves per
// 1000 ticks of serving time, measured to the last delivery.
func (r *Report) WavesPerKTick() float64 {
	if r.LastDoneT == 0 {
		return 0
	}
	return float64(len(r.Waves)) * 1000 / float64(r.LastDoneT)
}

// PerLane returns lane l's waves in delivery order — the unit of the
// pipelined-vs-serial differential (global interleaving differs by design;
// per-lane payload sequences must not).
func (r *Report) PerLane(l int) []Wave {
	var out []Wave
	for _, w := range r.Waves {
		if w.Lane == l {
			out = append(out, w)
		}
	}
	return out
}

// Canonical renders the deterministic byte representation the determinism
// and replay tests compare: every wave record (wall readings excluded), the
// residue/abort counters, the makespan, the exact latency percentiles, and
// the LogHist monitoring view. Two runs of the same (topology, engine,
// seed, arrival stream) must produce identical bytes regardless of worker
// count, host, or wall clock.
func (r *Report) Canonical() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "engine=%s serial=%v waves=%d residue=%d aborts=%d ticks=%d last_done=%d\n",
		r.Engine, r.Serial, len(r.Waves), r.Residue, r.Aborts, r.Ticks, r.LastDoneT)
	fmt.Fprintf(&b, "latency ticks p50=%d p90=%d p99=%d hist=%s\n",
		r.QuantileTicks(0.50), r.QuantileTicks(0.90), r.QuantileTicks(0.99), r.Hist.String())
	for _, w := range r.Waves {
		fmt.Fprintf(&b, "wave lane=%d kind=%s msg=%d resp=%d enq=%d start=%d done=%d\n",
			w.Lane, w.Kind, w.Msg, w.Resp, w.EnqueueT, w.StartT, w.DoneT)
	}
	return b.Bytes()
}

// MarshalJSONSummary renders the report without the per-wave log — the
// CLI's -json output.
func (r *Report) MarshalJSONSummary() ([]byte, error) {
	type summary struct {
		Engine      string          `json:"engine"`
		Serial      bool            `json:"serial,omitempty"`
		Waves       int             `json:"waves"`
		Residue     int             `json:"residue,omitempty"`
		Aborts      int             `json:"aborts,omitempty"`
		Ticks       int64           `json:"ticks"`
		LastDoneT   int64           `json:"last_done_t"`
		WavesPerKT  float64         `json:"waves_per_ktick"`
		P50Ticks    int64           `json:"p50_ticks"`
		P90Ticks    int64           `json:"p90_ticks"`
		P99Ticks    int64           `json:"p99_ticks"`
		P50WallNS   int64           `json:"p50_wall_ns,omitempty"`
		P99WallNS   int64           `json:"p99_wall_ns,omitempty"`
		MeanWallNS  float64         `json:"mean_wall_ns,omitempty"`
		LatencyHist json.RawMessage `json:"latency_hist"`
	}
	s := summary{
		Engine:      r.Engine,
		Serial:      r.Serial,
		Waves:       len(r.Waves),
		Residue:     r.Residue,
		Aborts:      r.Aborts,
		Ticks:       r.Ticks,
		LastDoneT:   r.LastDoneT,
		WavesPerKT:  r.WavesPerKTick(),
		P50Ticks:    r.QuantileTicks(0.50),
		P90Ticks:    r.QuantileTicks(0.90),
		P99Ticks:    r.QuantileTicks(0.99),
		LatencyHist: json.RawMessage(r.Hist.String()),
	}
	if r.WallHist.Count() > 0 {
		s.P50WallNS = r.WallHist.Quantile(0.50)
		s.P99WallNS = r.WallHist.Quantile(0.99)
		s.MeanWallNS = r.WallHist.Mean()
	}
	return json.MarshalIndent(&s, "", "  ")
}
