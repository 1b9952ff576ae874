package mc_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snappif/internal/core"
	"snappif/internal/exp"
	"snappif/internal/graph"
	"snappif/internal/mc"
)

// requireGolden compares got with testdata/name byte for byte. Regenerate
// with UPDATE_GOLDEN=1 only after a deliberate change to what the checker
// explores or prints.
func requireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (UPDATE_GOLDEN=1 to accept):\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestMCExperimentTableGolden pins the full-mode MC table — initial
// configurations, states, transitions and verdicts of every row — so a
// change to the checker's store cannot change what it explores.
func TestMCExperimentTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode MC experiment in -short mode")
	}
	out, err := exp.ModelChecking(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, "mc_table.golden", []byte(out.Table.String()))
}

// TestPrintedGuardsDeadlockGolden pins the deadlock trace the checker
// rediscovers under the printed guards (TestPrintedGuardsDeadlock) line for
// line: the BFS order and the first-predecessor trace spine decide which
// deadlocked state is reported and through which states it is reached.
func TestPrintedGuardsDeadlockGolden(t *testing.T) {
	g, err := graph.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mc.NewSnapModelWith(g, 0, core.WithPrintedGuards())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.New(m, mc.CentralPower).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock == nil {
		t.Fatal("printed guards did not deadlock")
	}
	requireGolden(t, "printed_guards_deadlock.golden", []byte(strings.Join(res.Deadlock, "\n")+"\n"))
}
