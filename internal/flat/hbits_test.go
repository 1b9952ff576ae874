package flat

import (
	"math/rand"
	"testing"

	"snappif/internal/bitset"
)

// These tests pin the runner's enabled-set index (bitset.Hier).

// TestHbitsAgainstMap drives the hierarchical bitset with a random
// set/clear workload and checks membership, population count, and ascending
// forEach enumeration against a map oracle.
func TestHbitsAgainstMap(t *testing.T) {
	const n = 1000
	h := bitset.NewHier(n)
	oracle := make(map[int]bool)
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 20_000; op++ {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			h.Set(i)
			oracle[i] = true
		} else {
			h.Clear(i)
			delete(oracle, i)
		}
	}
	if h.Count() != len(oracle) {
		t.Fatalf("count = %d, oracle %d", h.Count(), len(oracle))
	}
	for i := 0; i < n; i++ {
		if h.Test(i) != oracle[i] {
			t.Fatalf("test(%d) = %v, oracle %v", i, h.Test(i), oracle[i])
		}
	}
	prev := -1
	seen := 0
	h.ForEach(func(i int) {
		if i <= prev {
			t.Fatalf("forEach out of order: %d after %d", i, prev)
		}
		if !oracle[i] {
			t.Fatalf("forEach visited %d, not in oracle", i)
		}
		prev = i
		seen++
	})
	if seen != len(oracle) {
		t.Fatalf("forEach visited %d IDs, oracle has %d", seen, len(oracle))
	}
}

// TestHbitsIdempotentOps: double set / double clear must not corrupt the
// population count or the summary level.
func TestHbitsIdempotentOps(t *testing.T) {
	h := bitset.NewHier(200)
	h.Set(130)
	h.Set(130)
	if h.Count() != 1 {
		t.Fatalf("count after double set = %d, want 1", h.Count())
	}
	h.Clear(130)
	h.Clear(130)
	if h.Count() != 0 || h.Test(130) {
		t.Fatalf("count after double clear = %d, test = %v", h.Count(), h.Test(130))
	}
	// The summary word must be zero again so forEach skips the region.
	visited := false
	h.ForEach(func(int) { visited = true })
	if visited {
		t.Fatal("forEach visited an ID in an empty set")
	}
}
