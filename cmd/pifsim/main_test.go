package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-topo", "ring", "-n", "8", "-waves", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"network ring-8", "wave 1:", "wave 2:", "delivered=7/7", "— ok"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunEveryTopologyAndDaemon(t *testing.T) {
	for _, topo := range []string{"line", "ring", "star", "complete", "grid", "torus",
		"hypercube", "bintree", "caterpillar", "lollipop", "random"} {
		var out strings.Builder
		if err := run([]string{"-topo", topo, "-n", "9", "-waves", "1"}, &out); err != nil {
			t.Fatalf("topology %s: %v", topo, err)
		}
	}
	for _, d := range []string{"sync", "central", "dist", "local", "adversarial", "progress"} {
		var out strings.Builder
		if err := run([]string{"-daemon", d, "-n", "6", "-waves", "1"}, &out); err != nil {
			t.Fatalf("daemon %s: %v", d, err)
		}
	}
}

func TestRunWithCorruptionAndStates(t *testing.T) {
	for _, c := range []string{"uniform", "partial", "phantom", "fok", "counts", "stale", "levels", "region"} {
		var out strings.Builder
		if err := run([]string{"-topo", "grid", "-n", "9", "-waves", "1", "-corrupt", c, "-states"}, &out); err != nil {
			t.Fatalf("corruption %s: %v", c, err)
		}
		if !strings.Contains(out.String(), "final states:") {
			t.Fatalf("states dump missing for %s", c)
		}
		if strings.Contains(out.String(), "VIOLATED") {
			t.Fatalf("corruption %s violated the spec:\n%s", c, out.String())
		}
	}
}

func TestRunWatch(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-topo", "line", "-n", "6", "-waves", "1", "-watch", "-every", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "round ") {
		t.Fatalf("watch output missing:\n%s", out.String())
	}
}

// TestRunJSONTrace checks that -events writes the JSONL event trace in the
// obs schema: header first, step events, per-action totals.
func TestRunJSONTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out strings.Builder
	if err := run([]string{"-topo", "line", "-n", "5", "-waves", "1", "-events", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"moves_per_action"`) || !strings.Contains(string(data), "B-action") {
		t.Fatalf("unexpected trace: %s", data[:min(len(data), 200)])
	}
	if !strings.HasPrefix(string(data), `{"t":"meta"`) || !strings.Contains(string(data), `{"t":"step"`) {
		t.Fatalf("trace is not JSONL in the obs schema: %s", data[:min(len(data), 200)])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRunRejectsBadFlags checks that every bad flag value is an error
// raised before anything is printed.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-topo", "moebius"},
		{"-daemon", "chaotic"},
		{"-corrupt", "gremlins"},
		{"-topo", "ring", "-n", "2"},
		{"-waves", "-1"},
		{"-watch", "-every", "0"},
		{"-json", "trace.json"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Fatalf("args %v accepted", args)
		}
		if out.Len() != 0 {
			t.Fatalf("args %v printed before failing:\n%s", args, out.String())
		}
	}
}

func TestRunForest(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-topo", "star", "-n", "6", "-waves", "1", "-forest"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "final forest:") || !strings.Contains(out.String(), "legal tree (root p0)") {
		t.Fatalf("forest output missing:\n%s", out.String())
	}
}
