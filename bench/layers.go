package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/dht"
	"repro/internal/routing"
	"repro/internal/wire"
)

// extras are the traced run's measurements that are neither spans nor
// counters of the traced pass.
type extras struct {
	workers1Wall time.Duration // one more convergence of rep 0 at Workers: 1
	encodeMBs    float64       // codec replay of rep 0's seed-side frames
	decodeMBs    float64
}

// probeServing replays store operations on the system's network under
// the resolver decorator, then times table builds and state walks on a
// sample of peers and keys. The key stream is drawn as the workload
// engine draws it (zipf s=1.2 over the keyspace, 80/15/5 get/put/
// delete, a random home peer per op) but from the probe's own stream:
// the engine's generator is unexported.
func (s *layeredSystem) probeServing(sz sizing, seed int64) {
	const unit = -1
	var op spanID
	var fallbacks atomic.Int64
	scratch := newRecorder() // the preload's spans are not wanted
	res := &tracedResolver{
		inner:  failoverResolver{cache: s.cache, walk: routing.Walker{NW: s.nw}, fallbacks: &fallbacks},
		rec:    scratch,
		parent: &op,
		unit:   unit,
	}
	store := dht.NewWithResolver(s.nw, res)
	homes := s.nw.Peers()
	key := func(i int) string { return fmt.Sprintf("key-%06d", i) }
	for i := 0; i < sz.preload; i++ {
		store.Put(homes[i%len(homes)], key(i), "seed")
	}
	res.rec = s.rec

	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(sz.keyspace-1))
	for i := 0; i < sz.probeOps; i++ {
		x, k, home := rng.Float64(), key(int(zipf.Uint64())), homes[rng.Intn(len(homes))]
		switch {
		case x < 0.80:
			op = s.rec.begin("dht.get", 0, unit)
			store.Get(home, k)
		case x < 0.95:
			op = s.rec.begin("dht.put", 0, unit)
			store.Put(home, k, "probe")
		default:
			op = s.rec.begin("dht.delete", 0, unit)
			store.Delete(home, k)
		}
		s.rec.end(op)
	}

	s.unit = unit
	walk := routing.Walker{NW: s.nw}
	for i := 0; i < 256; i++ {
		id := homes[rng.Intn(len(homes))]
		s.span("routing.table_of", 0, func() { routing.TableOf(s.nw, id) })
		k := dht.KeyID(key(int(zipf.Uint64())))
		s.span("routing.walk", 0, func() { walk.Resolve(id, k) })
	}
}

// replayCodec pushes the captured frames through the codec alone, on a
// buffer: encode throughput, then decode throughput, MB/s.
func replayCodec(frames []wire.Frame) (encodeMBs, decodeMBs float64, err error) {
	if len(frames) == 0 {
		return 0, 0, nil
	}
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf, nil)
	t := time.Now()
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			return 0, 0, err
		}
	}
	encT := time.Since(t)
	mb := float64(buf.Len()) / 1e6
	dec := wire.NewDecoder(&buf, nil)
	t = time.Now()
	for range frames {
		if _, err := dec.Decode(); err != nil {
			return 0, 0, err
		}
	}
	return mb / encT.Seconds(), mb / time.Since(t).Seconds(), nil
}

// wireRounds reads the seed's round boundaries back from the trace: a
// round ends when its bundle has gone out to the last worker. It
// returns the duration of every round after a rep's first.
func wireRounds(spans []span) []float64 {
	type key struct{ unit, round int }
	ends := make(map[key]int64)
	last := make(map[int]int) // unit -> highest round
	for _, s := range spans {
		if s.Name == "wire.seed.send" && s.Round > 0 {
			k := key{s.Unit, s.Round}
			ends[k] = max(ends[k], s.End)
			last[s.Unit] = max(last[s.Unit], s.Round)
		}
	}
	var out []float64
	for unit, n := range last {
		for r := 2; r <= n; r++ {
			out = append(out, float64(ends[key{unit, r}]-ends[key{unit, r - 1}]))
		}
	}
	return out
}

// roundSpans sums the seed-side spans of the name that carried a round
// frame (the handshake and the fins are not part of a round).
func roundSpans(spans []span, name string) float64 {
	var ns float64
	for _, s := range spans {
		if s.Name == name && s.Round > 0 {
			ns += float64(s.dur())
		}
	}
	return ns
}

// perLayerMetrics digests a traced run: the untraced pass (totals),
// the traced pass over the same units (counters), the trace (times).
func perLayerMetrics(untraced, traced *pass, spans []span, ex extras) (map[string]metric, samples) {
	m := make(map[string]metric, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = metric{0, s.unit}
	}
	set := func(name string, v float64) {
		e, ok := m[name]
		if !ok {
			panic("bench: unlisted per-layer metric " + name)
		}
		e.Value = v
		m[name] = e
	}
	// quantiles sets the median (and p99, when asked for) of the samples
	// under the names, scaled, and notes how many samples there were.
	counts := samples{}
	quantiles := func(p50Name, p99Name string, ns []float64, div float64) {
		counts[p50Name] = len(ns)
		set(p50Name, median(ns)/div)
		if p99Name != "" {
			counts[p99Name] = len(ns)
			set(p99Name, percentile(ns, 99)/div)
		}
	}
	spanMedian := func(name, spanName string, div float64) {
		quantiles(name, "", durations(spans, spanName), div)
	}
	self := selfTimes(spans)

	// Totals of the untraced pass.
	var uWall, uMono, ops, elapsed, busy, bytes, rounds float64
	var p50, p99, p999, liveBytes []float64
	for _, u := range untraced.units {
		if u.liveBytes > 0 {
			liveBytes = append(liveBytes, float64(u.liveBytes))
		}
		uWall += u.wall.Seconds()
		uMono += u.monoWall.Seconds()
		rounds += float64(u.rounds)
		bytes += float64(u.wire.BytesSent)
		if u.serve.Ops > 0 {
			ops += float64(u.serve.Ops)
			elapsed += u.serve.Elapsed.Seconds()
			busy += u.serve.LatMean * float64(u.serve.Ops) / 1e9
			p50 = append(p50, u.serve.P50/1e3)
			p99 = append(p99, u.serve.P99/1e3)
			p999 = append(p999, u.serve.P999/1e3)
		}
	}
	if len(untraced.units) > 0 {
		set("rounds", float64(untraced.units[0].rounds))
		set("rounds_mean", rounds/float64(len(untraced.units)))
	}
	quantiles("settled_bytes_per_peer", "", liveBytes, float64(untraced.peers))
	set("workload.kops", ratio(ops, elapsed)/1e3)
	set("workload.p50_us", mean(p50))
	set("workload.p99_us", mean(p99))
	set("workload.p999_us", mean(p999))
	set("workload.busy_share", ratio(busy, clients*elapsed))
	set("wire.bytes_per_round", ratio(bytes, rounds))
	set("wire.overhead_vs_monolith", ratio(uWall, uMono))

	// Counters and sums of the traced pass.
	var tWall, mallocs, hops, hopOps, hits, misses, fallbacks, churned, tElapsed float64
	var frames, sent, buckets, publishes, tRounds float64
	for _, u := range traced.units {
		tWall += u.wall.Seconds()
		mallocs += float64(u.mallocs)
		tRounds += float64(u.rounds)
		r := u.serve
		hops += r.HopsMean * float64(r.Ops)
		hopOps += float64(r.Ops)
		hits += float64(r.CacheHits)
		misses += float64(r.CacheMisses)
		fallbacks += float64(r.Fallbacks)
		churned += float64(r.ChurnApplied)
		tElapsed += r.Elapsed.Seconds()
		frames += float64(u.wire.FramesSent)
		sent += float64(u.wire.BytesSent)
		buckets += float64(u.wire.BucketUpdates)
		publishes += float64(u.wire.Publishes)
	}
	// Overhead compares the units both passes ran undisturbed.
	var both, bothTraced float64
	for i, u := range traced.units {
		if i < len(untraced.units) && !u.disturbed() && !untraced.units[i].disturbed() {
			both += untraced.units[i].wall.Seconds()
			bothTraced += u.wall.Seconds()
		}
	}
	if both > 0 {
		set("trace.overhead_share", bothTraced/both-1)
	}

	e := traced.engine
	steps := durations(spans, "rechord.step")
	spanMedian("topogen.build_ms", "topogen.build", 1e6)
	spanMedian("churn.stable_network_s", "churn.stable_network", 1e9)
	spanMedian("churn.apply_us_p50", "churn.apply", 1e3)
	quantiles("rechord.step_ms_p50", "rechord.step_ms_p99", steps, 1e6)
	set("rechord.step_total_s", seconds(steps))
	set("rechord.activated", float64(e.activated))
	set("rechord.delivered", float64(e.delivered))
	set("rechord.woken", float64(e.woken))
	set("rechord.settled", float64(e.settled))
	set("rechord.unsettled", float64(e.unsettled))
	set("rechord.epoch_bumps", float64(e.epochBumps))
	set("rechord.frontier_mean", ratio(float64(e.activated), float64(e.batches)))
	set("rechord.us_per_activation", ratio(sum(steps)/1e3, float64(e.activated)))
	set("rechord.us_per_round", ratio(sum(steps)/1e3, float64(e.batches)))
	set("rechord.settle_ratio", ratio(float64(e.settled), float64(e.settled+e.unsettled)))
	for _, phase := range []string{"deliver", "execute", "prepare", "reroute", "publish"} {
		set("rechord.phase_"+phase+"_s", e.phaseNS[phase]/1e9)
	}
	set("rechord.mallocs_per_activation", ratio(mallocs, float64(e.activated)))
	set("rechord.flow_resident_bytes", float64(e.flowResident))
	set("rechord.flow_template_hit_rate", e.flowHitRate)
	if ex.workers1Wall > 0 && len(untraced.units) > 0 {
		set("rechord.workers1_wall_s", ex.workers1Wall.Seconds())
		set("rechord.parallel_speedup", ratio(ex.workers1Wall.Seconds(), untraced.units[0].wall.Seconds()))
	}
	spanMedian("rechord.compute_ideal_ms", "rechord.compute_ideal", 1e6)
	spanMedian("rechord.matches_ms", "rechord.matches", 1e6)
	quantiles("sim.run_self_ms_p50", "", selfDurations(spans, self, "sim.run"), 1e6)
	spanMedian("sim.measure_ms", "sim.measure", 1e6)
	spanMedian("dht.rebalance_ms", "dht.rebalance", 1e6)
	spanMedian("routing.prune_us", "routing.prune", 1e3)

	quantiles("routing.resolve_ns_p50", "routing.resolve_ns_p99", durations(spans, "routing.resolve"), 1)
	set("routing.hops_mean", ratio(hops, hopOps))
	set("routing.cache_hit_rate", ratio(hits, hits+misses))
	set("routing.cache_misses", misses)
	set("routing.invalidations", float64(traced.invalidations))
	set("routing.fallbacks", fallbacks)
	spanMedian("routing.table_build_us_p50", "routing.table_of", 1e3)
	spanMedian("routing.walk_ns_p50", "routing.walk", 1)
	for _, op := range []string{"get", "put", "delete"} {
		quantiles("dht."+op+"_self_ns_p50", "", selfDurations(spans, self, "dht."+op), 1)
	}

	var windows []float64
	for _, w := range traced.windows {
		windows = append(windows, float64(w.Nanoseconds()))
	}
	quantiles("workload.repair_window_ms_p50", "", windows, 1e6)
	set("workload.repair_share", ratio(seconds(windows), tElapsed))
	set("workload.churn_applied", churned)

	set("wire.frames", frames)
	set("wire.bytes_sent", sent)
	set("wire.bucket_updates", buckets)
	set("wire.publishes", publishes)
	if tRounds > 0 && sent > 0 {
		recv, send := roundSpans(spans, "wire.seed.recv"), roundSpans(spans, "wire.seed.send")
		set("wire.seed_recv_ms_per_round", recv/1e6/tRounds)
		set("wire.seed_send_ms_per_round", send/1e6/tRounds)
		set("wire.seed_compute_ms_per_round", (tWall*1e9-recv-send)/1e6/tRounds)
		quantiles("wire.round_ms_p50", "wire.round_ms_p99", wireRounds(spans), 1e6)
	}
	set("wire.encode_mb_s", ex.encodeMBs)
	set("wire.decode_mb_s", ex.decodeMBs)

	set("process.peak_rss_mb", peakRSS())
	return m, counts
}
