// Command bench is the end-to-end benchmark of the Re-Chord system: it
// drives the system the way its users do, on five workloads, checks
// every output against the oracle, and prints every metric by name
// with its unit. A traced run (-trace 1) repeats the measured units
// with the layers composed directly behind decorators and attributes
// the totals to the modules that spent them. BENCHMARK.json at the
// root of the repository describes it; README.md in this directory
// explains the workloads, the metrics and how they interact.
//
//	go run ./bench -workload converge -seed 7 -seconds 10 -trace 0
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/wire"
)

// workloads in the order BENCHMARK.json lists them; the README says
// why each exists.
var workloads = []string{"converge", "repair", "serve-steady", "serve-churn", "wire"}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result labelled with what produced it, one line of a
// result set (-append writes them, -compare reads them).
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "one of converge, repair, serve-steady, serve-churn, wire")
	seed := fs.Int64("seed", 7, "seed every input of the run is generated from")
	secs := fs.Float64("seconds", 10, "seconds of measured time (set-up and verification come on top)")
	trace := fs.Int("trace", 0, "1: measure half as long, repeat the same units traced, report the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny inputs: drives the same code in a fraction of a second")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory the traced run writes trace-<workload>.jsonl to")
	appendTo := fs.String("append", "", "also append the labelled result to this JSON-lines result set")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.jsonl b.jsonl")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "the benchmark description -compare takes the bounds from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result sets")
		}
		return compareSets(stdout, *benchmark, fs.Arg(0), fs.Arg(1))
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("want -seconds > 0 and -trace 0 or 1")
	}
	sz := fullSize
	if *smoke {
		sz = smokeSize
	}

	// The fixed settings: two processors for the engine's two workers
	// and the two clients, whatever the host has.
	runtime.GOMAXPROCS(2)
	fmt.Fprintf(stdout, "nproc=%d GOMAXPROCS=%d %s seed=%d workload=%s trace=%d seconds=%g smoke=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *name, *trace, *secs, *smoke)

	budget := time.Duration(*secs * float64(time.Second))
	res, err := runWorkload(context.Background(), stdout, *name, sz, *seed, budget, *trace == 1, *outDir)
	if res.Metrics == nil {
		return err // nothing was measured
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		return merr
	}
	if *appendTo != "" {
		if aerr := appendRecord(*appendTo, record{*name, *seed, *trace, res}); aerr != nil {
			return aerr
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// onePass runs the workload's units once: through the public facade
// when rec is nil, through the directly composed, decorated layers
// otherwise. log receives rep 0's seed-side wire frames.
func onePass(ctx context.Context, name string, sz sizing, seed int64, p plan, rec *recorder, log *frameLog) (*pass, error) {
	mk := facadeFactory(engineWorkers)
	if rec != nil {
		mk = layeredFactory(rec, engineWorkers)
	}
	switch name {
	case "converge":
		return runConverge(ctx, mk, sz, seed, p), nil
	case "repair":
		return runRepair(ctx, mk, sz, seed, p), nil
	case "serve-steady":
		return runServe(ctx, mk, sz, seed, p, sz.steadyOps, 0), nil
	case "serve-churn":
		return runServe(ctx, mk, sz, seed, p, sz.churnOps, sz.churnEvents), nil
	case "wire":
		var wrap func(wire.Transport, int) wire.Transport
		if rec != nil {
			wrap = func(t wire.Transport, unit int) wire.Transport {
				tt := &tracedTransport{inner: t, rec: rec, unit: unit}
				if unit == 0 {
					tt.log = log
				}
				return tt
			}
		}
		return runWire(ctx, sz, seed, p, wrap), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// runWorkload measures one workload and digests it. A correctness
// failure comes back as an error together with the (incorrect) result.
func runWorkload(ctx context.Context, w io.Writer, name string, sz sizing, seed int64, budget time.Duration, traced bool, outDir string) (result, error) {
	if traced {
		budget /= 2 // the other half goes to the traced repeat
	}
	untraced, err := onePass(ctx, name, sz, seed, plan{budget: budget}, nil, nil)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true}
	for _, u := range untraced.units {
		res.Attempted += u.ops
		res.Failed += u.failed
	}
	failure := untraced.failures()

	var counts samples
	if !traced {
		res.Metrics, counts = endToEndMetrics(untraced)
	} else {
		rec, log := newRecorder(), &frameLog{}
		tracedPass, _ := onePass(ctx, name, sz, seed, plan{replay: untraced.perSetup()}, rec, log)
		failure = errors.Join(failure, tracedPass.failures())
		// The traced pass ran the same inputs: every exact count must
		// repeat, or the numbers describe two different runs.
		if err := firstDivergence(untraced, tracedPass); err != nil {
			failure = errors.Join(failure, fmt.Errorf("traced pass diverged from the untraced pass: %w", err))
		}
		var ex extras
		switch name {
		case "converge":
			ex.workers1Wall, err = convergeSerial(ctx, sz, seed)
		case "serve-steady", "serve-churn":
			if ls, ok := tracedPass.last.(*layeredSystem); ok {
				ls.probeServing(sz, subseed(seed, 1<<20))
			}
		case "wire":
			ex.encodeMBs, ex.decodeMBs, err = replayCodec(log.frames)
		}
		failure = errors.Join(failure, err)
		spans := rec.snapshot()
		path := filepath.Join(outDir, "trace-"+name+".jsonl")
		if err := writeTrace(path, spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "%d spans written to %s\n", len(spans), path)
		res.Metrics, counts = perLayerMetrics(untraced, tracedPass, spans, ex)
	}
	describe(w, untraced)
	printMetrics(w, res.Metrics, counts)
	if failure != nil {
		res.Correct = false
		if res.Failed == 0 {
			res.Failed = 1
		}
	}
	return res, failure
}

// convergeSerial converges rep 0's inputs once more with one engine
// worker, the base of the parallel speed-up.
func convergeSerial(ctx context.Context, sz sizing, seed int64) (time.Duration, error) {
	sys, err := facadeFactory(1)("random", sz.convergeN, subseed(seed, 0), 0)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	_, err = sys.Stabilize(ctx)
	return time.Since(t), err
}

// describe prints what the pass ran, for the reader of the log.
func describe(w io.Writer, p *pass) {
	var rounds []float64
	byKind := map[string][]float64{}
	for _, u := range p.units {
		rounds = append(rounds, float64(u.rounds))
		for _, ev := range u.events {
			byKind[ev.kind] = append(byKind[ev.kind], float64(ev.wall.Nanoseconds())/1e6)
		}
	}
	fmt.Fprintf(w, "%d set-ups, %d units, %d of them measured; rounds per unit: median %.0f, min %.0f, max %.0f\n",
		len(p.setups), len(p.units), len(p.measured()), median(rounds), percentile(rounds, 0), percentile(rounds, 100))
	fmt.Fprint(w, "unit walls, ms (* the host stole more than 3 % of it):")
	for _, u := range p.units {
		fmt.Fprintf(w, " %.0f", float64(u.wall.Nanoseconds())/1e6)
		if u.disturbed() {
			fmt.Fprint(w, "*")
		}
	}
	fmt.Fprintln(w)
	for _, kind := range cycleKinds {
		if ms := byKind[kind]; len(ms) > 0 {
			fmt.Fprintf(w, "  %-5s events: median %.1f ms (n=%d)\n", kind, median(ms), len(ms))
		}
	}
}

func printMetrics(w io.Writer, ms map[string]metric, counts samples) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "%-34s %16.6g %-7s", name, m.Value, m.Unit)
		if n, ok := counts[name]; ok {
			fmt.Fprintf(w, " (n=%d)", n)
		}
		fmt.Fprintln(w)
	}
}
