package mc_test

import (
	"strings"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/mc"
	"snappif/internal/sim"
)

// TestRunFromNoConfigs: an empty seed set is an error, not a vacuous
// VERIFIED over zero states.
func TestRunFromNoConfigs(t *testing.T) {
	c := snapChecker(t, func() (*graph.Graph, error) { return graph.Line(3) }, 0, mc.CentralPower)
	if _, err := c.RunFrom(nil); err == nil || !strings.Contains(err.Error(), "no initial states") {
		t.Fatalf("RunFrom(nil) = %v, want a no-initial-states error", err)
	}
}

// TestStateLimitAtIntern: the limit fails the exploration on the first
// state past it, while the initial states are still being interned — not
// after all 373,248 of line-3's have been.
func TestStateLimitAtIntern(t *testing.T) {
	c := snapChecker(t, func() (*graph.Graph, error) { return graph.Line(3) }, 0, mc.CentralPower)
	c.SetLimit(100)
	res, err := c.Run()
	if err == nil || err.Error() != "mc: state limit 100 exceeded" {
		t.Fatalf("Run error = %v, want the state-limit error", err)
	}
	if res.InitialStates != 101 {
		t.Fatalf("Run stopped after %d initial states, want 101", res.InitialStates)
	}

	g, err := graph.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	var configs []*sim.Configuration
	for l := 1; l <= 2; l++ {
		for par := 0; par <= 1; par++ {
			cfg := sim.NewConfiguration(g, pr)
			core.Set(cfg, 2, core.State{Pif: core.B, Par: 1, L: l, Count: 1})
			core.Set(cfg, 1, core.State{Pif: core.F, Par: 0, L: 1 + par, Count: 1})
			configs = append(configs, cfg)
		}
	}
	c = snapChecker(t, func() (*graph.Graph, error) { return g, nil }, 0, mc.CentralPower)
	c.SetLimit(2)
	res, err = c.RunFrom(configs)
	if err == nil || err.Error() != "mc: state limit 2 exceeded" {
		t.Fatalf("RunFrom error = %v, want the state-limit error", err)
	}
	if res.InitialStates != 3 {
		t.Fatalf("RunFrom stopped after %d initial configurations, want 3", res.InitialStates)
	}
}

// TestMonitorWidthLimit: the monitor packs k·(n+1) bits into one word, so a
// model needing more than 64 is rejected up front.
func TestMonitorWidthLimit(t *testing.T) {
	c := snapChecker(t, func() (*graph.Graph, error) { return graph.Line(64) }, 0, mc.CentralPower)
	if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "more than 64") {
		t.Fatalf("Run on line-64 = %v, want a monitor-width error", err)
	}
	if _, err := c.RunFrom(nil); err == nil || !strings.Contains(err.Error(), "more than 64") {
		t.Fatalf("RunFrom on line-64 = %v, want a monitor-width error", err)
	}
	// 63 processors fit exactly: 63 fed bits plus the cycle bit.
	g, err := graph.Line(63)
	if err != nil {
		t.Fatal(err)
	}
	c = snapChecker(t, func() (*graph.Graph, error) { return g, nil }, 0, mc.CentralPower)
	c.SetLimit(1)
	clean := sim.NewConfiguration(g, core.MustNew(g, 0))
	if _, err := c.RunFrom([]*sim.Configuration{clean}); err == nil || !strings.Contains(err.Error(), "state limit") {
		t.Fatalf("RunFrom on line-63 = %v, want it to pass the width check", err)
	}
}
