// Command pifsim runs a single PIF simulation and narrates it: topology,
// daemon, optional corruption, number of waves, and per-wave measurements,
// with an optional structured event trace for offline analysis.
//
// Usage:
//
//	pifsim -topo ring -n 16 -waves 3 -daemon sync -corrupt uniform -events run.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"snappif"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pifsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("pifsim", flag.ContinueOnError)
	var (
		topoName = fs.String("topo", "ring", "topology: line|ring|star|complete|grid|torus|hypercube|bintree|caterpillar|lollipop|random")
		n        = fs.Int("n", 16, "network size (nodes; grids use the nearest square)")
		root     = fs.Int("root", 0, "root processor")
		waves    = fs.Int("waves", 3, "number of PIF waves to run")
		daemonN  = fs.String("daemon", "dist", "daemon: sync|central|dist|local|adversarial|progress")
		corrupt  = fs.String("corrupt", "", "initial corruption: uniform|partial|phantom|fok|counts|stale|levels|region")
		seed     = fs.Int64("seed", 1, "random seed")
		states   = fs.Bool("states", false, "dump final processor states")
		watch    = fs.Bool("watch", false, "print a phase strip at every round")
		every    = fs.Int("every", 1, "with -watch, print every k-th round")
		events   = fs.String("events", "", "write the structured JSONL event trace to this file (analyze it with piftrace)")
		forest   = fs.Bool("forest", false, "draw the final tree forest")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *waves < 0 {
		return fmt.Errorf("-waves %d: want ≥ 0", *waves)
	}
	if *every < 1 {
		return fmt.Errorf("-every %d: want ≥ 1", *every)
	}

	topo, err := buildTopo(*topoName, *n, *seed)
	if err != nil {
		return err
	}
	daemon, err := pickDaemon(*daemonN)
	if err != nil {
		return err
	}
	var kind snappif.Corruption
	if *corrupt != "" {
		if kind, err = pickCorruption(*corrupt); err != nil {
			return err
		}
	}
	netOpts := []snappif.NetworkOption{
		snappif.WithSeed(*seed),
		snappif.WithDaemon(daemon),
		snappif.WithInvariantChecking(),
	}
	if *watch {
		netOpts = append(netOpts, snappif.WithRoundTrace(out, *every))
	}
	var eventsF *os.File
	if *events != "" {
		eventsF, err = os.Create(*events)
		if err != nil {
			return err
		}
		// net.Close flushes the trace; the file close error still carries
		// late write failures (full disk) and must reach the exit code.
		defer func() {
			if cerr := eventsF.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("events: %w", cerr)
			}
		}()
		netOpts = append(netOpts, snappif.WithEventTrace(eventsF))
	}
	net, err := snappif.NewNetwork(topo, *root, netOpts...)
	if err != nil {
		return err
	}
	defer net.Close()
	fmt.Fprintf(out, "network %s, root %d, daemon %s\n", topo, *root, daemon.Name())

	if *corrupt != "" {
		if err := net.Corrupt(kind); err != nil {
			return err
		}
		fmt.Fprintf(out, "injected corruption: %s\n", *corrupt)
	}

	for i := 0; i < *waves; i++ {
		res, err := net.Broadcast()
		if err != nil {
			return fmt.Errorf("wave %d: %w", i+1, err)
		}
		status := "ok"
		if !res.OK() {
			status = fmt.Sprintf("VIOLATED: %v", res.Violations)
		}
		fmt.Fprintf(out, "wave %d: m=%d delivered=%d/%d acked=%d/%d rounds=%d (bound 5h+5=%d, h=%d) steps=%d — %s\n",
			i+1, res.Message, res.Delivered, topo.N()-1, res.Acknowledged, topo.N()-1,
			res.Rounds, 5*res.Height+5, res.Height, res.Steps, status)
	}

	if *states {
		fmt.Fprintln(out, "\nfinal states:")
		for _, s := range net.States() {
			fmt.Fprintf(out, "  p%-3d phase=%s parent=%-3d level=%-3d count=%-3d fok=%-5v payload=%d\n",
				s.ID, s.Phase, s.Parent, s.Level, s.Count, s.Fok, s.Payload)
		}
	}
	if *forest {
		fmt.Fprintln(out, "\nfinal forest:")
		net.WriteTree(out)
	}
	if *events != "" {
		if err := net.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "event trace written to %s\n", *events)
	}
	return nil
}

func buildTopo(name string, n int, seed int64) (snappif.Topology, error) {
	side := 1
	for side*side < n {
		side++
	}
	dim := 1
	for 1<<dim < n {
		dim++
	}
	switch strings.ToLower(name) {
	case "line":
		return snappif.Line(n)
	case "ring":
		return snappif.Ring(n)
	case "star":
		return snappif.Star(n)
	case "complete":
		return snappif.Complete(n)
	case "grid":
		return snappif.Grid(side, side)
	case "torus":
		return snappif.Torus(side, side)
	case "hypercube":
		return snappif.Hypercube(dim)
	case "bintree":
		return snappif.BinaryTree(n)
	case "caterpillar":
		return snappif.Caterpillar((n+2)/3, 2)
	case "lollipop":
		return snappif.Lollipop((n+1)/2, n/2)
	case "random":
		return snappif.Random(n, 0.2, seed)
	default:
		return snappif.Topology{}, fmt.Errorf("unknown topology %q", name)
	}
}

func pickDaemon(name string) (snappif.Daemon, error) {
	switch strings.ToLower(name) {
	case "sync":
		return snappif.SynchronousDaemon(), nil
	case "central":
		return snappif.CentralDaemon(), nil
	case "dist":
		return snappif.DistributedDaemon(0.5), nil
	case "local":
		return snappif.LocallyCentralDaemon(), nil
	case "adversarial":
		return snappif.AdversarialDaemon(), nil
	case "progress":
		return snappif.ProgressFirstDaemon(), nil
	default:
		return snappif.Daemon{}, fmt.Errorf("unknown daemon %q", name)
	}
}

func pickCorruption(name string) (snappif.Corruption, error) {
	switch strings.ToLower(name) {
	case "uniform":
		return snappif.CorruptUniform, nil
	case "partial":
		return snappif.CorruptPartial, nil
	case "phantom":
		return snappif.CorruptPhantomTree, nil
	case "fok":
		return snappif.CorruptPrematureFok, nil
	case "counts":
		return snappif.CorruptInflatedCounts, nil
	case "stale":
		return snappif.CorruptStaleFeedback, nil
	case "levels":
		return snappif.CorruptMaxLevels, nil
	case "region":
		return snappif.CorruptStaleRegion, nil
	default:
		return 0, fmt.Errorf("unknown corruption %q", name)
	}
}
