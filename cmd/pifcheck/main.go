// Command pifcheck runs the exhaustive model checker: it enumerates every
// initial configuration of a PIF protocol on a small network and every
// daemon schedule, and verifies snap-stabilization (safety of every
// completed wave), deadlock freedom, and reachability of the clean
// configuration. Checking the self-stabilizing baseline instead synthesizes
// a concrete counterexample — the paper's separation, derived by machine.
//
// Usage:
//
//	pifcheck -topo line -n 3 -daemon central            # prove snap PIF
//	pifcheck -proto selfstab -topo line -n 4            # find the baseline's flaw
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/mc"
	"snappif/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pifcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pifcheck", flag.ContinueOnError)
	var (
		proto   = fs.String("proto", "snap", "protocol: snap|selfstab")
		topoN   = fs.String("topo", "line", "topology: line|ring|star")
		n       = fs.Int("n", 3, "network size (keep tiny in full mode: the state space is the full domain product)")
		root    = fs.Int("root", 0, "root processor")
		daemonN = fs.String("daemon", "central", "daemon power: central|distributed")
		mode    = fs.String("mode", "full", "full: enumerate every initial configuration; faults: explore all schedules from every fault injector's output (snap only, scales to larger n)")
		seeds   = fs.Int("seeds", 5, "with -mode faults, seeds per fault pattern")
		limit   = fs.Int("limit", 0, "abort if the reachable state count exceeds this (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}
	if *limit < 0 {
		return fmt.Errorf("-limit must be 0 (unlimited) or positive, got %d", *limit)
	}

	g, err := buildTopo(*topoN, *n)
	if err != nil {
		return err
	}
	var power mc.DaemonPower
	switch strings.ToLower(*daemonN) {
	case "central":
		power = mc.CentralPower
	case "distributed":
		power = mc.DistributedPower
	default:
		return fmt.Errorf("unknown daemon power %q", *daemonN)
	}
	var model mc.Model
	switch strings.ToLower(*proto) {
	case "snap":
		model, err = mc.NewSnapModel(g, *root)
	case "selfstab":
		model, err = mc.NewSelfStabModel(g, *root)
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
	if err != nil {
		return err
	}

	checker := mc.New(model, power)
	checker.SetLimit(*limit)
	//snapvet:ok harness wall-clock for the human progress report; never feeds checker state
	start := time.Now()
	var res mc.Result
	switch strings.ToLower(*mode) {
	case "full":
		fmt.Fprintf(out, "exhaustively checking %s on %s under the %s daemon…\n", *proto, g, *daemonN)
		res, err = checker.Run()
	case "faults":
		if strings.ToLower(*proto) != "snap" {
			return fmt.Errorf("-mode faults is only wired for the snap protocol")
		}
		configs, cerr := faultConfigs(g, *root, *seeds)
		if cerr != nil {
			return cerr
		}
		fmt.Fprintf(out, "systematically checking %s on %s: all %s schedules from %d injected configurations…\n",
			*proto, g, *daemonN, len(configs))
		res, err = checker.RunFrom(configs)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "explored: %d initial configurations, %d states, %d transitions (%.1fs)\n",
		//snapvet:ok harness wall-clock for the human progress report; never feeds checker state
		res.InitialStates, res.States, res.Transitions, time.Since(start).Seconds())

	if res.OK() {
		fmt.Fprintln(out, "VERIFIED: every completed wave is delivered and acknowledged ([PIF1],[PIF2]),")
		fmt.Fprintln(out, "          no reachable deadlock, the clean configuration is always reachable.")
		return nil
	}
	if res.SafetyViolation != nil {
		fmt.Fprintln(out, "SAFETY VIOLATION (counterexample):")
		for _, line := range res.SafetyViolation {
			fmt.Fprintln(out, "  "+line)
		}
	}
	if res.Deadlock != nil {
		fmt.Fprintln(out, "DEADLOCK reachable:")
		for _, line := range res.Deadlock {
			fmt.Fprintln(out, "  "+line)
		}
	}
	if res.LivenessViolation != nil {
		fmt.Fprintln(out, "LIVENESS VIOLATION (clean configuration unreachable from):")
		for _, line := range res.LivenessViolation {
			fmt.Fprintln(out, "  "+line)
		}
	}
	return fmt.Errorf("%s failed exhaustive checking", *proto)
}

// faultConfigs builds the systematic-mode seed set: every fault injector's
// output on `seeds` RNG seeds, plus the clean configuration.
func faultConfigs(g *graph.Graph, root, seeds int) ([]*sim.Configuration, error) {
	pr, err := core.New(g, root)
	if err != nil {
		return nil, err
	}
	var configs []*sim.Configuration
	for _, inj := range append(fault.All(), fault.Clean()) {
		for s := 0; s < seeds; s++ {
			cfg := sim.NewConfiguration(g, pr)
			inj.Apply(cfg, pr, rand.New(rand.NewSource(int64(s))))
			configs = append(configs, cfg)
		}
	}
	return configs, nil
}

func buildTopo(name string, n int) (*graph.Graph, error) {
	switch strings.ToLower(name) {
	case "line":
		return graph.Line(n)
	case "ring":
		return graph.Ring(n)
	case "star":
		return graph.Star(n)
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}
