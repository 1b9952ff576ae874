package service

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"snappif/internal/event"
	"snappif/internal/graph"
)

// laneParallelCell is one serving run of the lane-parallel golden grid.
type laneParallelCell struct {
	topo       string
	engine     string
	latency    string // event engine only; "" = engine default
	initiators []int
	faults     []string
	rate       float64
	requests   int
	seed       int64
}

func (c laneParallelCell) name() string {
	start := "clean"
	if c.faults != nil {
		start = "corrupt"
	}
	return fmt.Sprintf("%s/%s/lanes=%d/%s/seed=%d", c.topo, c.engine, len(c.initiators), start, c.seed)
}

// canonicalHash serves the cell pipelined and returns the sha256 of its
// Report.Canonical() bytes.
func (c laneParallelCell) canonicalHash(t *testing.T) string {
	t.Helper()
	g, err := graph.Parse(c.topo)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := Workload{Rate: c.rate, Requests: c.requests, Lanes: len(c.initiators), Seed: c.seed}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Graph: g, Engine: c.engine, Initiators: c.initiators, Faults: c.faults, Seed: c.seed}
	if opts.Latency, err = event.ParseLatency(c.latency); err != nil {
		t.Fatal(err)
	}
	rep := mustServe(t, opts, arrivals, false)
	if len(rep.Waves) != len(arrivals) {
		t.Fatalf("%s delivered %d/%d waves", c.name(), len(rep.Waves), len(arrivals))
	}
	return fmt.Sprintf("%x", sha256.Sum256(rep.Canonical()))
}

// laneParallelCells is the golden grid: every engine, 2–4 lanes, clean and
// corrupted starts, two seeds. full adds the two perfbench-shaped cells.
func laneParallelCells(full bool) []laneParallelCell {
	// Injectors whose corruption outlives the first arrival on these
	// sizes, so a corrupted cell's report differs from its clean twin.
	corrupt := []string{"premature-fok", "phantom-tree", "stale-feedback", "inflated-counts"}
	var cells []laneParallelCell
	for _, tp := range []struct {
		spec       string
		initiators []int
	}{
		{"ring:24", []int{0, 12}},
		{"line:15", []int{0, 7, 14}},
		{"grid:5x5", []int{0, 8, 16, 24}},
	} {
		for _, eng := range engines {
			latency := ""
			if eng == "event" {
				latency = "uniform:1-3"
			}
			for _, faults := range [][]string{nil, corrupt[:len(tp.initiators)]} {
				for _, seed := range []int64{1, 2} {
					cells = append(cells, laneParallelCell{
						topo: tp.spec, engine: eng, latency: latency,
						initiators: tp.initiators, faults: faults,
						rate: 100, requests: 24, seed: seed,
					})
				}
			}
		}
	}
	if full {
		cells = append(cells,
			laneParallelCell{
				topo: "ring:1000", engine: "flat", initiators: []int{0, 250, 500, 750},
				rate: 1, requests: 100, seed: 1,
			},
			laneParallelCell{
				topo: "grid:32x32", engine: "event", latency: "uniform:1-3",
				initiators: []int{0, 341, 682, 1023},
				faults:     []string{"uniform-random", "phantom-tree", "stale-region", "max-levels"},
				rate:       4, requests: 400, seed: 1,
			})
	}
	return cells
}

const laneParallelGolden = "testdata/lane_parallel_canonical.golden"

// TestPipelinedLaneParallelByteIdentical pins pipelined serving's
// Report.Canonical() bytes to hashes recorded from the single-goroutine
// shared-clock loop, at GOMAXPROCS 1, 2 and 4: the lane pool may change
// which worker runs which lane, never a byte of the report. CI_SERVICE=1
// adds the two perfbench-shaped cells (ring:1000 flat, grid:32x32 event).
// Regenerate with UPDATE_GOLDEN=1 CI_SERVICE=1 only when the serving
// semantics change on purpose.
func TestPipelinedLaneParallelByteIdentical(t *testing.T) {
	cells := laneParallelCells(os.Getenv("CI_SERVICE") == "1")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		var b strings.Builder
		for _, c := range cells {
			fmt.Fprintf(&b, "%s %s\n", c.name(), c.canonicalHash(t))
		}
		if err := os.MkdirAll(filepath.Dir(laneParallelGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(laneParallelGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(laneParallelGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 CI_SERVICE=1)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hash, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cells {
			w, ok := want[c.name()]
			if !ok {
				t.Fatalf("no golden hash for %s", c.name())
			}
			if got := c.canonicalHash(t); got != w {
				t.Errorf("GOMAXPROCS=%d %s: canonical sha256 %s, golden %s", procs, c.name(), got, w)
			}
		}
	}
}

// TestPipelinedLaneErrorLowestLane: when several lanes fail, Run returns
// the lowest-index lane's error whichever worker finishes first. Lane 0
// gets the fewest arrivals, so longest-first dispatch runs it last.
func TestPipelinedLaneErrorLowestLane(t *testing.T) {
	g, err := graph.Parse("ring:64")
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []Arrival{{T: 1, Lane: 0, Kind: "snapshot"}}
	for j := int64(1); j <= 4; j++ {
		arrivals = append(arrivals,
			Arrival{T: j, Lane: 1, Kind: "barrier"},
			Arrival{T: j, Lane: 2, Kind: "infimum"})
	}
	SortArrivals(arrivals)
	const want = "service: lane 0: virtual clock exceeded MaxTicks=40 with 1/1 arrivals injected, 0 waves delivered"

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, eng := range engines {
			for rep := 0; rep < 3; rep++ {
				srv, err := New(Options{Graph: g, Engine: eng, Initiators: []int{0, 21, 42}, MaxTicks: 40})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := srv.Run(arrivals); err == nil || err.Error() != want {
					t.Fatalf("GOMAXPROCS=%d %s: error %v, want %q", procs, eng, err, want)
				}
			}
		}
	}
}

// TestServeTickZeroAllocs: once warm, a lane advancing through an active
// wave allocates nothing per tick on any engine — no per-tick observer
// closure, no engine-side growth.
func TestServeTickZeroAllocs(t *testing.T) {
	g, err := graph.Parse("ring:128")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			srv, err := New(Options{Graph: g, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			ln := srv.lanes[0]
			ln.rep = &Report{}
			ln.enqueue(Snapshot, 1, 0, 1)
			var tick int64
			advance := func() {
				tick++
				if err := ln.advance(tick); err != nil {
					t.Fatal(err)
				}
			}
			for ln.inflight == nil {
				if advance(); tick > 16 {
					t.Fatal("wave did not start")
				}
			}
			for i := 0; i < 8; i++ {
				advance() // warm the engine's buffers on the growing wave
			}
			if allocs := testing.AllocsPerRun(32, advance); allocs != 0 {
				t.Errorf("%.1f allocs per served tick, want 0", allocs)
			}
			if ln.inflight == nil || len(ln.rep.Waves) != 0 {
				t.Fatalf("wave finished by tick %d; the measurement left the active wave", tick)
			}
		})
	}
}
