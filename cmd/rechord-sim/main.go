// Command rechord-sim runs one Re-Chord self-stabilization simulation
// through the public cluster facade and reports convergence: rounds to
// the almost-stable and stable states, per-round series, and the final
// topology statistics.
//
// Usage:
//
//	rechord-sim -n 105 -topology random -seed 7 [-series] [-dot out.dot]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/cluster"
	"repro/internal/export"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rechord-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rechord-sim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		n        = fs.Int("n", 25, "number of peers (real nodes)")
		topology = fs.String("topology", cluster.TopologyRandom,
			"initial topology: "+strings.Join(cluster.Topologies(), "|"))
		seed    = fs.Int64("seed", 1, "random seed")
		workers = fs.Int("workers", 0, "parallel workers per round (0 = all cores)")
		series  = fs.Bool("series", false, "print the per-round metric series")
		maxR    = fs.Int("max-rounds", 0, "round/step budget (0 = derived from n)")
		dotFile = fs.String("dot", "", "write the final graph in DOT format to this file")
		model   = fs.String("model", "sync", "execution model: sync (synchronous rounds) or async (event-driven adversary)")
		asyncP  = fs.Float64("async-p", 0.5, "async: per-step activation probability in (0, 1]")
		delay   = fs.String("delay", "", "async: message delay model (uniform:MAX, geometric:P[:MAX], pareto:ALPHA[:MAX]; empty = delay 1)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *n <= 0 {
		return fmt.Errorf("-n %d: need at least 1 peer", *n)
	}
	if *maxR < 0 {
		return fmt.Errorf("-max-rounds %d is negative", *maxR)
	}

	opts := []cluster.Option{
		cluster.WithSize(*n),
		cluster.WithSeed(*seed),
		cluster.WithTopology(*topology),
		cluster.WithWorkers(*workers),
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch *model {
	case "sync":
		if explicit["delay"] || explicit["async-p"] {
			return fmt.Errorf("-delay and -async-p only apply to -model async")
		}
	case "async":
		dm, err := cluster.ParseDelayModel(*delay)
		if err != nil {
			return err
		}
		opts = append(opts, cluster.WithAsync(*asyncP, dm))
	default:
		return fmt.Errorf("unknown model %q (want sync or async)", *model)
	}

	c, err := cluster.New(opts...)
	if err != nil {
		return err
	}
	defer c.Close()

	stabOpts := []cluster.StabilizeOption{
		cluster.StabilizeMaxRounds(*maxR),
		cluster.StabilizeAlmostStable(),
	}
	if *series {
		stabOpts = append(stabOpts, cluster.StabilizeSeries())
	}
	rep, err := c.Stabilize(context.Background(), stabOpts...)
	if err != nil && !errors.Is(err, cluster.ErrUnstable) {
		return err
	}

	unit := "rounds"
	if c.ExecutionModel() == "async" {
		unit = "async steps"
		fmt.Fprintf(stdout, "execution model: async (activation p=%.2f, delay %q)\n", *asyncP, *delay)
	}
	fmt.Fprintf(stdout, "peers: %d, topology: %s, seed: %d\n", *n, *topology, *seed)
	if rep.Stable {
		fmt.Fprintf(stdout, "stable after %d %s (almost stable after %d)\n", rep.Rounds, unit, rep.AlmostStableRound)
	} else {
		fmt.Fprintf(stdout, "NOT stable after %d %s\n", rep.Rounds, unit)
	}
	if verr := c.VerifyStable(); verr != nil {
		fmt.Fprintf(stdout, "final state deviates from the oracle: %v\n", verr)
	} else {
		fmt.Fprintln(stdout, "final state matches the oracle stable topology")
	}
	fmt.Fprintf(stdout, "messages: %d\n", rep.Messages)
	final := c.Topology()
	fmt.Fprintf(stdout, "final: %d real + %d virtual nodes, %d unmarked + %d ring + %d connection edges\n",
		final.RealNodes, final.VirtualNodes,
		final.UnmarkedEdges, final.RingEdges, final.ConnectionEdges)

	if *series {
		tab := export.NewTable("per-round series",
			"round", "unmarked", "ring", "connection", "virtual", "messages")
		for _, m := range rep.Series {
			tab.AddRow(m.Round, m.UnmarkedEdges, m.RingEdges, m.ConnectionEdges, m.VirtualNodes, m.Messages)
		}
		if err := tab.WriteText(stdout); err != nil {
			return err
		}
	}
	// The paper's local-checkability insight, demonstrated: at the
	// fixed point every peer's purely local check passes.
	stable, total := c.LocallyStable()
	fmt.Fprintf(stdout, "locally stable peers at the fixed point: %d/%d\n", stable, total)
	if *dotFile != "" {
		if err := os.WriteFile(*dotFile, []byte(c.DOT()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "final graph written to %s\n", *dotFile)
	}
	return err
}
