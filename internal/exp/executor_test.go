package exp

import (
	"testing"
	"time"

	"snappif/internal/obs"
)

// TestRunGridCellTimeHistogram checks that exp.cell_us records sub-second
// cells at microsecond resolution: a cell sleeping 2 ms adds at least
// 2000 µs to the histogram's sum.
func TestRunGridCellTimeHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	opt := Options{Metrics: reg}
	if _, err := runGrid(opt, func(int) string { return "sleep" }, 1, func(int) (int, error) {
		time.Sleep(2 * time.Millisecond)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("exp.cell_us")
	if h.Count() != 1 {
		t.Fatalf("exp.cell_us has %d observations, want 1", h.Count())
	}
	if sum := h.Mean() * float64(h.Count()); sum < 2000 {
		t.Fatalf("exp.cell_us sum = %v µs, want ≥ 2000", sum)
	}
}
