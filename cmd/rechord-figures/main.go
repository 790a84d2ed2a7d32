// Command rechord-figures regenerates every figure and theorem-level
// experiment of the paper's evaluation (DESIGN.md §6 has the experiment
// index; the fits and notes printed under each table are the
// paper-vs-measured reading).
//
// Usage:
//
//	rechord-figures                 # everything, paper-scale
//	rechord-figures -fig 5          # one figure
//	rechord-figures -exp join       # one experiment
//	rechord-figures -quick          # reduced sweep for smoke tests
//	rechord-figures -csv dir/       # also dump CSVs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rechord-figures: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rechord-figures", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		fig    = fs.Int("fig", 0, "regenerate one figure (5, 6 or 7)")
		exp    = fs.String("exp", "", "run one experiment by name (see -list)")
		list   = fs.Bool("list", false, "list experiment names")
		quick  = fs.Bool("quick", false, "reduced sweep (for smoke testing)")
		seed   = fs.Int64("seed", 1, "sweep seed")
		reps   = fs.Int("reps", 0, "replications per size (0 = paper's 30, or 3 with -quick)")
		plot   = fs.Bool("plot", true, "render ASCII plots where available")
		csvDir = fs.String("csv", "", "directory to write CSV files to")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *list {
		names := make([]string, 0, len(experiments.Runners))
		for _, r := range experiments.Runners {
			names = append(names, r.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}

	if *fig != 0 && *fig != 5 && *fig != 6 && *fig != 7 {
		return fmt.Errorf("-fig %d: the paper has figures 5, 6 and 7", *fig)
	}
	if *reps < 0 {
		return fmt.Errorf("-reps %d is negative", *reps)
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if *reps > 0 {
		cfg.Reps = *reps
	}

	// One sweep for the whole invocation: the figures that read the same
	// converged runs share them.
	sweep := experiments.NewSweep(cfg)
	want, ran := *exp, false
	if *fig != 0 {
		want = fmt.Sprintf("fig%d", *fig)
	}
	for _, r := range experiments.Runners {
		if want != "" && r.Name != want {
			continue
		}
		ran = true
		res, err := r.Run(sweep)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		if err := res.WriteText(stdout, *plot); err != nil {
			return err
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, res.Name+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := res.Table.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "csv: %s\n", path)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (try -list)", want)
	}
	return nil
}
