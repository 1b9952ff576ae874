package obs_test

import (
	"encoding/json"
	"strings"
	"testing"

	"snappif/internal/obs"
)

func TestRegistryBasics(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("a.count")
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Fatalf("counter = %d, want 7", c.Value())
	}
	if again := reg.Counter("a.count"); again != c {
		t.Fatal("counter not shared by name")
	}
	h := reg.Histogram("a.hist", 1, 10)
	for _, v := range []int64{0, 1, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Max() != 50 || h.Mean() != 14 {
		t.Fatalf("histogram count=%d max=%d mean=%v", h.Count(), h.Max(), h.Mean())
	}

	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("registry JSON invalid: %v\n%s", err, b.String())
	}
	if len(decoded) != 2 {
		t.Fatalf("registry exports %d vars, want 2", len(decoded))
	}
	var hist struct {
		Count   int64            `json:"count"`
		Buckets map[string]int64 `json:"buckets"`
	}
	if err := json.Unmarshal(decoded["a.hist"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 4 || hist.Buckets["le_1"] != 2 || hist.Buckets["le_10"] != 1 || hist.Buckets["inf"] != 1 {
		t.Fatalf("histogram export wrong: %+v", hist)
	}
}

// TestRegistryPublishRepoints asserts that publishing a second registry
// under the same expvar name re-points the export instead of panicking
// (expvar forbids duplicate Publish calls).
func TestRegistryPublishRepoints(t *testing.T) {
	r1 := obs.NewRegistry()
	r1.Counter("x").Add(1)
	r1.Publish("test.obs.repoint")
	r2 := obs.NewRegistry()
	r2.Counter("x").Add(42)
	r2.Publish("test.obs.repoint") // must not panic
}

func TestTypeCollisionPanics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on metric type collision")
		}
	}()
	reg.Histogram("dual")
}

// TestRegistryWriteJSONByteStable pins the export's byte-level
// determinism: WriteJSON output depends only on the metrics' names and
// values, never on registration order.
func TestRegistryWriteJSONByteStable(t *testing.T) {
	render := func(order []string) string {
		reg := obs.NewRegistry()
		for _, name := range order {
			reg.Counter(name).Add(int64(len(name)))
		}
		reg.Histogram("h", 1, 10).Observe(5)
		var b strings.Builder
		if err := reg.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := render([]string{"sim.steps", "exp.cells", "sim.moves.B-action"})
	b := render([]string{"sim.moves.B-action", "sim.steps", "exp.cells"})
	if a != b {
		t.Fatalf("registration order leaked into the export:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"exp.cells":9`) {
		t.Fatalf("unexpected export: %s", a)
	}
}
