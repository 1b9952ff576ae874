package service

import (
	"fmt"
	"math"
	"sort"
)

// Arrival is one request in an open-loop stream: at virtual tick T, lane
// Lane receives a request of the named Kind. The form is JSON-stable — it
// is what hunt scenarios serialize to make load-dependent behavior
// replayable bit for bit.
type Arrival struct {
	T    int64  `json:"t"`
	Lane int    `json:"lane"`
	Kind string `json:"kind"`
}

// Workload is a seedable open-loop request generator: arrivals at mean rate
// Rate (per 1000 virtual ticks) under the chosen inter-arrival process,
// each assigned a lane and a payload kind from the mix. Generation is a
// pure function of the struct's fields — the same workload drives every
// engine and mode to byte-identical serving runs.
type Workload struct {
	// Process is the inter-arrival process: "poisson" (exponential gaps,
	// default) or "constant" (evenly spaced).
	Process string
	// Rate is the offered load in requests per 1000 virtual ticks (> 0).
	Rate float64
	// Requests is the stream length (> 0).
	Requests int
	// Lanes spreads requests uniformly over this many lanes (default 1).
	Lanes int
	// Mix weights the request kinds by name; nil means uniform over all
	// kinds. Weights must be ≥ 0 with a positive sum.
	Mix map[string]float64
	// Seed drives the generator's private RNG (default 1).
	Seed int64
}

// Generate produces the arrival stream, sorted by (T, Lane) with T ≥ 1.
func (w Workload) Generate() ([]Arrival, error) {
	if w.Rate <= 0 {
		return nil, fmt.Errorf("service: workload rate %g must be > 0", w.Rate)
	}
	if w.Requests <= 0 {
		return nil, fmt.Errorf("service: workload requests %d must be > 0", w.Requests)
	}
	lanes := w.Lanes
	if lanes <= 0 {
		lanes = 1
	}
	seed := w.Seed
	if seed == 0 {
		seed = 1
	}
	process := w.Process
	if process == "" {
		process = "poisson"
	}
	if process != "poisson" && process != "constant" {
		return nil, fmt.Errorf("service: unknown arrival process %q (want poisson or constant)", process)
	}

	// Resolve the mix into a cumulative weight table over Kind order. Map
	// iteration order never matters: kinds are walked in declaration order.
	weights := make([]float64, numKinds)
	if w.Mix == nil {
		for i := range weights {
			weights[i] = 1
		}
	} else {
		names := make([]string, 0, len(w.Mix))
		for name := range w.Mix { //snapvet:ok keys are sorted before use; iteration order never escapes
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			wt := w.Mix[name]
			k, err := ParseKind(name)
			if err != nil {
				return nil, err
			}
			if wt < 0 {
				return nil, fmt.Errorf("service: mix weight %q = %g must be ≥ 0", name, wt)
			}
			weights[k] = wt
		}
	}
	var total float64
	cum := make([]float64, numKinds)
	for i, wt := range weights {
		total += wt
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("service: request mix has no positive weight")
	}

	rng := newRNG(seed)
	meanGap := 1000.0 / w.Rate // ticks between arrivals
	arrivals := make([]Arrival, 0, w.Requests)
	var t float64
	for i := 0; i < w.Requests; i++ {
		switch process {
		case "poisson":
			t += rng.ExpFloat64() * meanGap
		case "constant":
			t += meanGap
		}
		tick := int64(math.Ceil(t))
		if tick < 1 {
			tick = 1
		}
		lane := rng.Intn(lanes)
		u := rng.Float64() * total
		kind := Kind(sort.SearchFloat64s(cum, u))
		if kind >= numKinds {
			kind = numKinds - 1
		}
		// Zero-weight kinds have zero-width intervals; SearchFloat64s can
		// land on them only at exact boundaries — skip forward to the next
		// positive weight.
		for weights[kind] == 0 && kind+1 < numKinds {
			kind++
		}
		arrivals = append(arrivals, Arrival{T: tick, Lane: lane, Kind: kind.String()})
	}
	SortArrivals(arrivals)
	return arrivals, nil
}
