package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestCheckSnapLine3(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-proto", "snap", "-topo", "line", "-n", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "VERIFIED") {
		t.Fatalf("snap protocol not verified:\n%s", out.String())
	}
}

func TestCheckSelfStabLine4FindsViolation(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-proto", "selfstab", "-topo", "line", "-n", "4"}, &out)
	if err == nil {
		t.Fatalf("baseline passed checking:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "SAFETY VIOLATION") {
		t.Fatalf("violation not reported:\n%s", out.String())
	}
}

// elapsed matches the wall-clock field of the "explored:" line, the one
// part of pifcheck's stdout that differs between runs.
var elapsed = regexp.MustCompile(`\(\d+\.\ds\)`)

// TestCheckSelfStabLine4Golden pins pifcheck's whole stdout for the
// baseline on a 4-line, the synthesized counterexample trace line for line,
// with only the elapsed seconds masked. The golden lives beside the
// checker's other goldens in internal/mc/testdata; regenerate it with
// UPDATE_GOLDEN=1.
func TestCheckSelfStabLine4Golden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-proto", "selfstab", "-topo", "line", "-n", "4"}, &out); err == nil {
		t.Fatalf("baseline passed checking:\n%s", out.String())
	}
	got := []byte(elapsed.ReplaceAllString(out.String(), "(X.Xs)"))
	golden := filepath.Join("..", "..", "internal", "mc", "testdata", "pifcheck_selfstab_line4.golden")
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
		t.Fatalf("pifcheck stdout drifted from golden (UPDATE_GOLDEN=1 to accept):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCheckFaultsMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "faults", "-topo", "ring", "-n", "5", "-seeds", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "VERIFIED") {
		t.Fatalf("faults mode not verified:\n%s", out.String())
	}
	// faults mode is snap-only.
	var out2 strings.Builder
	if err := run([]string{"-mode", "faults", "-proto", "selfstab"}, &out2); err == nil {
		t.Fatal("faults mode accepted for the baseline")
	}
	var out3 strings.Builder
	if err := run([]string{"-mode", "sideways"}, &out3); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestCheckRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-proto", "quantum"},
		{"-topo", "kleinbottle"},
		{"-daemon", "laplace"},
		{"-topo", "ring", "-n", "2"},
		{"-mode", "faults", "-seeds", "0"},
		{"-mode", "faults", "-seeds", "-3"},
		{"-limit", "-5"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestCheckLimitFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-topo", "line", "-n", "3", "-limit", "100"}, &out); err == nil {
		t.Fatal("limit not enforced")
	}
}
