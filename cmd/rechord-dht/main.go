// Command rechord-dht demonstrates the Chord emulation on top of a
// stabilized Re-Chord network, consumed entirely through the public
// cluster facade, in two modes.
//
// The default demo mode builds a cluster, stores key-value pairs
// routed over the overlay, survives churn, and verifies every key
// stays reachable:
//
//	rechord-dht -n 32 -keys 200 -churn 4 -seed 1
//
// Workload mode drives the concurrent traffic engine — client workers,
// pluggable key distributions, optional churn interleaved with the
// traffic — and prints the latency and hop-count percentile tables:
//
//	rechord-dht -mode workload -n 64 -workers 8 -ops 50000 \
//	    -dist zipf -churn 4 -seed 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/cluster"
	"repro/internal/export"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rechord-dht: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rechord-dht", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		mode    = fs.String("mode", "demo", "demo or workload")
		n       = fs.Int("n", 32, "number of peers")
		seed    = fs.Int64("seed", 1, "random seed")
		events  = fs.Int("churn", 4, "churn events (join/leave/fail) to apply")
		keys    = fs.Int("keys", 200, "demo: number of key-value pairs")
		workers = fs.Int("workers", 8, "workload: concurrent client workers")
		ops     = fs.Int("ops", 20000, "workload: total operations")
		keysp   = fs.Int("keyspace", 4096, "workload: distinct keys")
		dist    = fs.String("dist", cluster.DistUniform, "workload: key distribution (uniform, zipf, hotspot)")
		rate    = fs.Float64("rate", 0, "workload: open-loop target ops/sec (0 = closed loop)")
		model   = fs.String("model", "sync", "execution model: sync or async (re-stabilization under the asynchronous adversary)")
		asyncP  = fs.Float64("async-p", 0.5, "async: per-step activation probability in (0, 1]")
		delay   = fs.String("delay", "", "async: message delay model (uniform:MAX, geometric:P[:MAX], pareto:ALPHA[:MAX]; empty = delay 1)")
		httpOn  = fs.String("http", "", "serve /metrics (JSON) and /debug/pprof on this address (e.g. :8080) for the run's lifetime")
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
	if *ops < 0 {
		return fmt.Errorf("-ops %d is negative", *ops)
	}
	if *keys < 0 {
		return fmt.Errorf("-keys %d is negative", *keys)
	}
	if *events < 0 {
		return fmt.Errorf("-churn %d is negative", *events)
	}
	switch *dist {
	case cluster.DistUniform, cluster.DistZipf, cluster.DistHotspot:
	default:
		return fmt.Errorf("-dist %q: want uniform, zipf or hotspot", *dist)
	}
	if *mode != "demo" && *mode != "workload" {
		return fmt.Errorf("unknown mode %q (want demo or workload)", *mode)
	}

	opts := []cluster.Option{
		cluster.WithSize(*n),
		cluster.WithSeed(*seed),
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

	fmt.Fprintf(stdout, "building a stable Re-Chord cluster of %d peers (%s execution)...\n", *n, *model)
	c, err := cluster.New(opts...)
	if err != nil {
		return err
	}
	defer c.Close()

	if *httpOn != "" {
		addr, stop, err := serveObs(c, *httpOn)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(stdout, "observability: http://%s/metrics and /debug/pprof\n", addr)
	}

	if *mode == "demo" {
		return runDemo(c, stdout, *keys, *events)
	}
	return runWorkload(c, stdout, cluster.WorkloadConfig{
		Workers:      *workers,
		Ops:          *ops,
		Keyspace:     *keysp,
		Distribution: *dist,
		Preload:      *keysp / 2,
		Seed:         *seed,
		Rate:         *rate,
		ChurnEvents:  *events,
	})
}

func runWorkload(c *cluster.Cluster, stdout io.Writer, cfg cluster.WorkloadConfig) error {
	fmt.Fprintf(stdout, "workload: %d workers, %d ops, %s keys over %d, churn %d\n",
		cfg.Workers, cfg.Ops, cfg.Distribution, cfg.Keyspace, cfg.ChurnEvents)
	res, err := c.RunWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res.Summary())
	fmt.Fprintln(stdout)

	ns := func(v float64) string { return time.Duration(v).Round(10 * time.Nanosecond).String() }
	latRows := []export.HistRow{{Name: "all", H: res.Latency}}
	hopRows := []export.HistRow{{Name: "all", H: res.Hops}}
	for _, op := range res.PerOp {
		latRows = append(latRows, export.HistRow{Name: op.Name, H: op.Latency})
		hopRows = append(hopRows, export.HistRow{Name: op.Name, H: op.Hops})
	}
	if err := export.PercentileTable("operation latency", latRows, ns).WriteText(stdout); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	if err := export.PercentileTable("lookup hops", hopRows, nil).WriteText(stdout); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	if total := res.CacheHits + res.CacheMisses; total > 0 {
		fmt.Fprintf(stdout, "routing cache: %d hits / %d misses (%.1f%% hit rate), %d lookups retried on a later view\n",
			res.CacheHits, res.CacheMisses, 100*float64(res.CacheHits)/float64(total), res.Fallbacks)
	}
	fmt.Fprintf(stdout, "churn events applied: %d; final store: %d keys, fingerprint %016x; ops fingerprint %016x\n",
		res.ChurnApplied, res.StoreLen, res.StoreFingerprint, res.OpsFingerprint)
	return nil
}

func runDemo(c *cluster.Cluster, stdout io.Writer, keys, events int) error {
	ctx := context.Background()

	// Watch the cluster's own event stream instead of polling.
	stream, cancel := c.Subscribe(4 * (events + 2))
	defer cancel()

	for i := 0; i < keys; i++ {
		if err := c.Put(ctx, fmt.Sprintf("object-%04d", i), fmt.Sprintf("value-%04d", i)); err != nil {
			return err
		}
	}
	// Hop statistics from a sample of routed lookups (up to 100), so
	// the demo does not re-route every stored key.
	var hops []float64
	step := keys / 100
	if step < 1 {
		step = 1
	}
	for i := 0; i < keys; i += step {
		_, h, err := c.Lookup(ctx, fmt.Sprintf("object-%04d", i))
		if err != nil {
			return err
		}
		hops = append(hops, float64(h))
	}
	s := stats.Summarize(hops)
	fmt.Fprintf(stdout, "stored %d keys; lookup hops: mean %.2f, max %.0f\n", c.Keys(), s.Mean, s.Max)

	fmt.Fprintf(stdout, "applying %d churn events...\n", events)
	recs, err := c.ChurnRandom(ctx, events)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		fmt.Fprintf(stdout, "  %-5s %s: re-stabilized in %d rounds\n", rec.Kind, rec.Peer, rec.Rounds)
	}
	if err := c.VerifyStable(); err != nil {
		return err
	}

	// Every key must still be retrievable after the churn.
	missing := 0
	for i := 0; i < keys; i++ {
		v, err := c.Get(ctx, fmt.Sprintf("object-%04d", i))
		switch {
		case errors.Is(err, cluster.ErrNotFound):
			missing++
		case err != nil:
			return err
		case v != fmt.Sprintf("value-%04d", i):
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d keys lost after churn", missing)
	}
	fmt.Fprintf(stdout, "all %d keys retrievable after churn; %d peers remain\n", keys, c.Size())

	// Show one traced lookup and what the event stream saw.
	tr, err := c.TraceLookup(ctx, "object-0000")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace %s\n", tr)
	counts := map[string]int{}
	for len(stream) > 0 {
		counts[(<-stream).Kind.String()]++
	}
	fmt.Fprintf(stdout, "event stream: %d joins, %d leaves, %d failures, %d settles, %d epoch bumps\n",
		counts["peer-joined"], counts["peer-left"], counts["peer-failed"],
		counts["region-settled"], counts["epoch-bumped"])
	return nil
}
