package main

import (
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec names a metric and its unit; the lists below are the contract
// BENCHMARK.json repeats (a test keeps the two in step).
type spec struct{ name, unit string }

// endToEnd are the numbers a user of the system feels, measured with
// tracing off. Every workload reports all of them; what an "operation"
// is on each workload is in the README.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
}

// perLayer are the traced run's numbers, one layer (module) per
// prefix. A layer that is idle on a workload reports 0.
var perLayer = []spec{
	// Totals the issue listed end to end that cannot be uniform across
	// the five workloads (see README, "What moved where").
	{"rounds", "count"},
	{"rounds_mean", "count"},
	{"settled_bytes_per_peer", "B"},
	{"workload.kops", "kops/s"},
	{"workload.p50_us", "us"},
	{"workload.p99_us", "us"},
	{"workload.p999_us", "us"},
	{"wire.bytes_per_round", "B"},

	{"topogen.build_ms", "ms"},
	{"churn.stable_network_s", "s"},
	{"churn.apply_us_p50", "us"},
	{"rechord.step_ms_p50", "ms"},
	{"rechord.step_ms_p99", "ms"},
	{"rechord.step_total_s", "s"},
	{"rechord.activated", "count"},
	{"rechord.delivered", "count"},
	{"rechord.woken", "count"},
	{"rechord.settled", "count"},
	{"rechord.unsettled", "count"},
	{"rechord.epoch_bumps", "count"},
	{"rechord.frontier_mean", "count"},
	{"rechord.us_per_activation", "us"},
	{"rechord.us_per_round", "us"},
	{"rechord.settle_ratio", "ratio"},
	{"rechord.phase_deliver_s", "s"},
	{"rechord.phase_execute_s", "s"},
	{"rechord.phase_prepare_s", "s"},
	{"rechord.phase_reroute_s", "s"},
	{"rechord.phase_publish_s", "s"},
	{"rechord.mallocs_per_activation", "count"},
	{"rechord.flow_resident_bytes", "B"},
	{"rechord.flow_template_hit_rate", "ratio"},
	{"rechord.workers1_wall_s", "s"},
	{"rechord.parallel_speedup", "ratio"},
	{"rechord.compute_ideal_ms", "ms"},
	{"rechord.matches_ms", "ms"},
	{"sim.run_self_ms_p50", "ms"},
	{"sim.measure_ms", "ms"},
	{"dht.rebalance_ms", "ms"},
	{"routing.prune_us", "us"},
	{"routing.resolve_ns_p50", "ns"},
	{"routing.resolve_ns_p99", "ns"},
	{"routing.hops_mean", "count"},
	{"routing.cache_hit_rate", "ratio"},
	{"routing.cache_misses", "count"},
	{"routing.invalidations", "count"},
	{"routing.fallbacks", "count"},
	{"routing.table_build_us_p50", "us"},
	{"routing.walk_ns_p50", "ns"},
	{"dht.get_self_ns_p50", "ns"},
	{"dht.put_self_ns_p50", "ns"},
	{"dht.delete_self_ns_p50", "ns"},
	{"workload.busy_share", "ratio"},
	{"workload.repair_window_ms_p50", "ms"},
	{"workload.repair_share", "ratio"},
	{"workload.churn_applied", "count"},
	{"wire.frames", "count"},
	{"wire.bytes_sent", "B"},
	{"wire.bucket_updates", "count"},
	{"wire.publishes", "count"},
	{"wire.seed_recv_ms_per_round", "ms"},
	{"wire.seed_send_ms_per_round", "ms"},
	{"wire.seed_compute_ms_per_round", "ms"},
	{"wire.round_ms_p50", "ms"},
	{"wire.round_ms_p99", "ms"},
	{"wire.encode_mb_s", "MB/s"},
	{"wire.decode_mb_s", "MB/s"},
	{"wire.overhead_vs_monolith", "ratio"},
	{"process.peak_rss_mb", "MiB"},
	{"trace.overhead_share", "ratio"},
}

// engineTotals is the engine's work between two snapshots.
type engineTotals struct {
	batches, activated, woken, delivered, settled, unsettled, epochBumps uint64

	phaseNS map[string]float64 // per barrier phase: total nanoseconds

	// Gauges at the later snapshot, not differences.
	flowResident int64
	flowHitRate  float64
}

func totalsOf(s obs.EngineSnapshot) engineTotals {
	t := engineTotals{
		batches: s.Batches, activated: s.Activated, woken: s.Woken, delivered: s.Delivered,
		settled: s.Settled, unsettled: s.Unsettled, epochBumps: s.EpochBumps,
		phaseNS:      make(map[string]float64, len(s.PhaseNS)),
		flowResident: s.FlowResidentBytes, flowHitRate: s.FlowTemplateHit,
	}
	for name, h := range s.PhaseNS {
		t.phaseNS[name] = h.Mean * float64(h.Count)
	}
	return t
}

// sub returns the work done since the earlier snapshot.
func (t engineTotals) sub(earlier engineTotals) engineTotals {
	d := t
	d.batches -= earlier.batches
	d.activated -= earlier.activated
	d.woken -= earlier.woken
	d.delivered -= earlier.delivered
	d.settled -= earlier.settled
	d.unsettled -= earlier.unsettled
	d.epochBumps -= earlier.epochBumps
	d.phaseNS = make(map[string]float64, len(t.phaseNS))
	for name, ns := range t.phaseNS {
		d.phaseNS[name] = ns - earlier.phaseNS[name]
	}
	return d
}

// add accumulates; the gauges keep the latest value.
func (t *engineTotals) add(d engineTotals) {
	t.batches += d.batches
	t.activated += d.activated
	t.woken += d.woken
	t.delivered += d.delivered
	t.settled += d.settled
	t.unsettled += d.unsettled
	t.epochBumps += d.epochBumps
	if t.phaseNS == nil {
		t.phaseNS = make(map[string]float64, len(d.phaseNS))
	}
	for name, ns := range d.phaseNS {
		t.phaseNS[name] += ns
	}
	t.flowResident, t.flowHitRate = d.flowResident, d.flowHitRate
}

func seconds(ds []float64) float64 { return sum(ds) / 1e9 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// samples counts what a median or percentile was taken over, printed
// beside it.
type samples map[string]int

// endToEndMetrics digests an untraced pass.
func endToEndMetrics(p *pass) (map[string]metric, samples) {
	var setups, walls, p50s, tails []float64
	var ops int
	var wall, alloc float64
	serving := false
	// Set-ups the host disturbed are left out, unless it disturbed all.
	for _, s := range p.setups {
		if !disturbed(s.wall, s.stolen) {
			setups = append(setups, s.wall.Seconds())
		}
	}
	if len(setups) == 0 {
		for _, s := range p.setups {
			setups = append(setups, s.wall.Seconds())
		}
	}
	for _, u := range p.measured() {
		ops += u.ops
		wall += u.wall.Seconds()
		alloc += float64(u.alloc)
		walls = append(walls, float64(u.wall.Nanoseconds())/1e6)
		if u.serve.Ops > 0 {
			serving = true
			p50s = append(p50s, u.serve.P50/1e6)
			tails = append(tails, u.serve.P99/1e6)
		}
	}
	n := samples{"setup_s": len(setups), "op_ms_p50": len(walls), "op_ms_tail": len(walls)}
	v := map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       ratio(float64(ops), wall),
		"alloc_kb_per_op": ratio(alloc/1024, float64(ops)),
	}
	if serving {
		// An operation is one KV op. The latency histogram's buckets are
		// 1.6 % wide, so a percentile of the merged histogram would read
		// the same run after run; the mean over the chunks of each
		// chunk's percentile resolves below a bucket. p99 has far more
		// than ten samples beyond it in every chunk.
		v["op_ms_p50"], v["op_ms_tail"] = mean(p50s), mean(tails)
		n["op_ms_p50"], n["op_ms_tail"] = ops, ops
	} else {
		v["op_ms_p50"], v["op_ms_tail"] = median(walls), percentile(walls, pickTail(len(walls)))
	}
	m := make(map[string]metric, len(endToEnd))
	for _, s := range endToEnd {
		m[s.name] = metric{v[s.name], s.unit}
	}
	return m, n
}

// peakRSS reads the process's high-water resident set, MiB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
