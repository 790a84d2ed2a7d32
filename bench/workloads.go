package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
)

// sizing fixes how big each workload's inputs are. The full sizes are
// what BENCHMARK.json's run_seconds was chosen for; smoke drives the
// same code in well under a second per workload, for the tests.
type sizing struct {
	convergeN int // peers per convergence

	repairN int // peers of the stable cluster that absorbs churn cycles
	serveN  int // peers of the stable cluster that serves traffic
	setups  int // independent stable clusters per run (set-up samples)

	keyspace, preload int
	warmOps           int // ops of the untimed warm-up chunk that ends set-up
	steadyOps         int // ops per serve-steady chunk
	churnOps          int // ops per serve-churn chunk
	churnEvents       int // membership events per serve-churn chunk

	wireN, ranks int

	probeOps int // traced run: store ops replayed under the resolver decorator
}

var (
	fullSize = sizing{
		convergeN: 320,
		repairN:   512, serveN: 512, setups: 3,
		keyspace: 65536, preload: 16384, warmOps: 50_000,
		steadyOps: 400_000, churnOps: 200_000, churnEvents: 2,
		wireN: 192, ranks: 4,
		probeOps: 50_000,
	}
	smokeSize = sizing{
		convergeN: 64,
		repairN:   64, serveN: 64, setups: 2,
		keyspace: 512, preload: 128, warmOps: 200,
		steadyOps: 2000, churnOps: 2000, churnEvents: 2,
		wireN: 24, ranks: 2,
		probeOps: 500,
	}
)

// subseed derives an independent seed for one part of a run from the
// run's seed (splitmix64 over the path), so every rep, cluster and
// chunk has its own inputs and the same --seed reproduces all of them.
func subseed(seed int64, path ...int) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += 0x9E3779B97F4A7C15 * uint64(p+1)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
	}
	return int64(x >> 1) // non-negative: seeds print the same everywhere
}

// counter is a count that must repeat exactly when the same inputs run
// again (another pass of the same seed).
type counter struct {
	name string
	v    uint64
}

// unit is one repetition of a workload's measured phase: one
// convergence, one churn cycle, one chunk of traffic, one wire run.
type unit struct {
	setup   int           // the set-up the unit ran on
	ops     int           // operations completed (1, or a chunk's op count)
	failed  int           // operations that failed
	wall    time.Duration // the measured phase
	alloc   uint64        // bytes allocated during it
	mallocs uint64
	stolen  time.Duration // processor time the host stole meanwhile
	rounds  int
	exact   []counter
	err     error // a failed correctness check or an operation error

	// serve chunks: the chunk's latency percentiles and more, ns.
	serve serveResult
	// repair cycles: the events of the cycle.
	events []event
	// converge: heap the settled cluster holds, bytes.
	liveBytes uint64
	// wire: what the run put on the wire, and the monolith's wall.
	wire     obs.WireSnapshot
	monoWall time.Duration
}

// event is one membership change of a churn cycle with its repair.
type event struct {
	kind string
	wall time.Duration // Join / Leave / Fail + Stabilize
}

// pass is everything one pass over a workload's units produced.
type pass struct {
	setups []setup
	units  []unit
	engine engineTotals // engine work of the measured phases, summed
	last   system       // the last system built, for probes
	peers  int          // the size of the systems' networks

	invalidations uint64 // router-cache entries the measured phases invalidated

	windows []time.Duration // serve-churn, traced: the repair windows
}

// measured returns the units whose timings count: the ones that
// reached their measured phase undisturbed — or all that reached it,
// when the host left fewer than three alone (the log says so).
func (p *pass) measured() []unit {
	var ran, quiet []unit
	for _, u := range p.units {
		if u.wall == 0 {
			continue // failed before its measured phase
		}
		ran = append(ran, u)
		if !u.disturbed() {
			quiet = append(quiet, u)
		}
	}
	if len(quiet) < 3 {
		return ran
	}
	return quiet
}

// perSetup returns how many units ran on each set-up.
func (p *pass) perSetup() []int {
	var out []int
	for _, u := range p.units {
		for len(out) <= u.setup {
			out = append(out, 0)
		}
		out[u.setup]++
	}
	return out
}

// plan says how much a pass runs: a measured-time budget split evenly
// over the set-ups, or — replaying an earlier pass under tracing — the
// exact number of units on each set-up.
type plan struct {
	budget time.Duration
	replay []int
}

// cold reports that the pass is the process's first. The workloads
// whose units each build their own system then run one unit unmeasured:
// the first one of a process pays for growing the heap and faulting its
// pages in, 15-50 % on top, which says nothing about the system.
func (p plan) cold() bool { return p.replay == nil }

// maxStretch bounds how far disturbed units may stretch a pass: when
// the host keeps stealing, a set-up's units end after this many times
// its share of the budget on the wall clock — measured phases, checks
// and per-unit builds together, so that a run's length stays bounded
// whatever the host does (114 runs have to fit the driver's cap).
const maxStretch = 2

// run repeats one set-up's unit and appends the units to the pass: until
// the set-up's share of the budget has been spent on undisturbed units
// (at least once), or exactly as often as the replayed pass did.
func (p plan) run(out *pass, setup, setups int, one func(i int) unit) {
	share := p.budget / time.Duration(setups)
	var spent, total time.Duration
	for i := 0; ; i++ {
		if p.replay != nil {
			if i >= p.replay[setup] {
				return
			}
		} else if i > 0 && (spent >= share || total >= maxStretch*share) {
			return
		}
		t := time.Now()
		u := one(i)
		u.setup = setup
		// Everything the unit took, not its measured phase alone.
		total += max(u.wall, time.Since(t))
		if !u.disturbed() {
			spent += u.wall
		}
		out.units = append(out.units, u)
	}
}

// stolen returns the processor time the host has so far given to
// someone else while this guest wanted to run (the steal column of
// /proc/stat, all processors together); 0 where nothing accounts it.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseInt(f[8], 10, 64)
		return time.Duration(ticks) * (time.Second / 100) // USER_HZ
	}
	return 0
}

// stealLimit is the share of a unit's processor time (wall x the two
// processors the run uses) the host may steal before the unit counts as
// disturbed. Undisturbed stretches of this box read 0-1 %; its bursts,
// 10-40 % for 5-30 s, slow a unit down by as much and would otherwise
// be most of a metric's spread.
const stealLimit = 0.03

// disturbed reports that the host stole enough of the unit's time for
// its timings to say more about the host than about the system. Such a
// unit still runs every check, but no end-to-end number uses it and it
// does not count against the time budget.
func (u unit) disturbed() bool { return disturbed(u.wall, u.stolen) }

func disturbed(wall, stolen time.Duration) bool {
	return float64(stolen) > stealLimit*float64(wall)*2
}

// setup is one timed build of a workload's initial state.
type setup struct{ wall, stolen time.Duration }

// timeSetup times a build and appends it to the pass's set-ups.
func (p *pass) timeSetup(build func()) {
	s0, t := stolen(), time.Now()
	build()
	p.setups = append(p.setups, setup{time.Since(t), stolen() - s0})
}

// meter measures one phase: wall clock, and — read outside the timed
// interval — the allocation counters and the host's steal.
type meter struct {
	t0     time.Time
	m0     runtime.MemStats
	stolen time.Duration
}

func startMeter() *meter {
	m := &meter{stolen: stolen()}
	runtime.ReadMemStats(&m.m0)
	m.t0 = time.Now()
	return m
}

// stop adds the phase to the unit and returns the phase's wall clock.
func (m *meter) stop(u *unit) time.Duration {
	wall := time.Since(m.t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	u.wall += wall
	u.alloc += m1.TotalAlloc - m.m0.TotalAlloc
	u.mallocs += m1.Mallocs - m.m0.Mallocs
	u.stolen += stolen() - m.stolen
	return wall
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// verify runs both correctness checks on a settled system.
func verify(sys system) error {
	if err := sys.VerifyStable(); err != nil {
		return err
	}
	return sys.VerifyLocal()
}

// engineCounters are the engine counts that must repeat.
func engineCounters(d engineTotals) []counter {
	return []counter{
		{"rechord.batches", d.batches},
		{"rechord.activated", d.activated},
		{"rechord.delivered", d.delivered},
		{"rechord.woken", d.woken},
	}
}

// peersHash folds a membership into one word (the facade has no state
// fingerprint; at a verified fixed point the membership determines the
// state).
func peersHash(sys system) uint64 {
	var h uint64 = 14695981039346656037
	for _, id := range sys.Peers() {
		h = (h ^ uint64(id)) * 1099511628211
	}
	return h
}

// runConverge: each unit builds n peers in a random weakly connected
// topology and stabilizes them to the fixed point.
func runConverge(ctx context.Context, mk systemFactory, sz sizing, seed int64, p plan) *pass {
	out := &pass{peers: sz.convergeN}
	if p.cold() {
		if sys, err := mk("random", sz.convergeN, subseed(seed, -1), -1); err == nil {
			sys.Stabilize(ctx)
		}
	}
	p.run(out, 0, 1, func(i int) unit {
		u := unit{ops: 1}
		// Every rep starts from a collected heap, so neither the build
		// nor the run pays for the previous rep's garbage.
		base := liveHeap()
		var sys system
		var err error
		out.timeSetup(func() { sys, err = mk("random", sz.convergeN, subseed(seed, i), i) })
		if err != nil {
			u.err, u.failed = err, 1
			return u
		}
		m := startMeter()
		u.rounds, err = sys.Stabilize(ctx)
		m.stop(&u)
		if err == nil {
			err = verify(sys)
		}
		if err != nil {
			u.err, u.failed = fmt.Errorf("rep %d: %w", i, err), 1
		}
		tot := totalsOf(sys.Metrics().Engine)
		out.engine.add(tot)
		u.exact = append([]counter{{"rounds", uint64(u.rounds)}, {"peers_hash", peersHash(sys)}}, engineCounters(tot)...)
		if live := liveHeap(); live > base {
			u.liveBytes = live - base
		}
		out.last = sys
		return u
	})
	return out
}

var cycleKinds = [...]string{"join", "leave", "fail"}

// runRepair: on each stable cluster, churn cycles — a join, a graceful
// leave and a crash, each stabilized to the fixed point and verified
// before the next.
func runRepair(ctx context.Context, mk systemFactory, sz sizing, seed int64, p plan) *pass {
	out := &pass{peers: sz.repairN}
	for k := 0; k < sz.setups; k++ {
		var sys system
		var err error
		out.timeSetup(func() { sys, err = mk("stable", sz.repairN, subseed(seed, k), k<<16) })
		if err != nil {
			out.units = append(out.units, unit{setup: k, ops: 1, failed: 1, err: err})
			continue
		}
		victims := rand.New(rand.NewSource(subseed(seed, k, 1)))
		before := totalsOf(sys.Metrics().Engine)
		p.run(out, k, sz.setups, func(i int) unit {
			u := unit{ops: 1}
			sys.Mark(k<<16 | i)
			for _, kind := range cycleKinds {
				var victim ident.ID
				if kind != "join" {
					peers := sys.Peers()
					victim = peers[victims.Intn(len(peers))]
				}
				m := startMeter()
				var err error
				switch kind {
				case "join":
					_, err = sys.Join(ctx)
				case "leave":
					err = sys.Leave(ctx, victim)
				default:
					err = sys.Fail(ctx, victim)
				}
				var rounds int
				if err == nil {
					rounds, err = sys.Stabilize(ctx)
				}
				u.events = append(u.events, event{kind, m.stop(&u)})
				u.rounds += rounds
				if err == nil {
					err = sys.VerifyStable()
				}
				if err == nil && kind == cycleKinds[len(cycleKinds)-1] {
					err = sys.VerifyLocal()
				}
				if err != nil && u.err == nil {
					u.err, u.failed = fmt.Errorf("cluster %d cycle %d %s: %w", k, i, kind, err), 1
				}
			}
			after := totalsOf(sys.Metrics().Engine)
			d := after.sub(before)
			before = after
			out.engine.add(d)
			u.exact = append([]counter{{"rounds", uint64(u.rounds)}, {"peers_hash", peersHash(sys)}}, engineCounters(d)...)
			return u
		})
		out.last = sys
	}
	return out
}

// runServe: on each stable cluster, chunks of closed-loop traffic from
// two clients; churn > 0 races membership events against each chunk.
func runServe(ctx context.Context, mk systemFactory, sz sizing, seed int64, p plan, chunkOps, churn int) *pass {
	out := &pass{peers: sz.serveN}
	for k := 0; k < sz.setups; k++ {
		var sys system
		var err error
		out.timeSetup(func() {
			if sys, err = mk("stable", sz.serveN, subseed(seed, k), k<<16); err == nil {
				// Set-up ends with the preload and a warm-up chunk, so the
				// measured chunks start on filled routing tables.
				_, err = sys.Serve(ctx, serveConfig{Ops: sz.warmOps, Keyspace: sz.keyspace, Preload: sz.preload, Seed: subseed(seed, k, 0)})
			}
		})
		if err != nil {
			out.units = append(out.units, unit{setup: k, ops: 1, failed: 1, err: err})
			continue
		}
		before := totalsOf(sys.Metrics().Engine)
		p.run(out, k, sz.setups, func(i int) unit {
			var u unit
			sys.Mark(k<<16 | i)
			peers := sys.Peers()
			cfg := serveConfig{Ops: chunkOps, Keyspace: sz.keyspace, Preload: sz.preload, Churn: churn, Seed: subseed(seed, k, i+1)}
			if churn > 0 {
				cfg.Seed = joinSeed(peers, churn, seed, k, i+1)
			}
			m := startMeter()
			res, err := sys.Serve(ctx, cfg)
			m.stop(&u)
			// The measured phase is the traffic, not the preload before it.
			u.serve, u.ops, u.failed, u.wall = res, res.Ops, res.Errors, res.Elapsed
			switch {
			case err != nil:
				u.err = err
			case res.Ops != chunkOps:
				u.err = fmt.Errorf("chunk completed %d of %d ops", res.Ops, chunkOps)
			case res.Errors != 0:
				u.err = fmt.Errorf("%d operations failed", res.Errors)
			case churn == 0 && res.Fallbacks != 0:
				u.err = fmt.Errorf("steady chunk: %d fallbacks", res.Fallbacks)
			case res.ChurnApplied != churn:
				u.err = fmt.Errorf("applied %d of %d churn events", res.ChurnApplied, churn)
			case len(sys.Peers()) != len(peers)+churn:
				u.err = fmt.Errorf("%d peers became %d: the chunk's %d events were not all joins (joinSeed no longer mirrors workload.Run's draw)",
					len(peers), len(sys.Peers()), churn)
			}
			if u.err != nil {
				u.err = fmt.Errorf("cluster %d chunk %d: %w", k, i, u.err)
				if u.ops == 0 {
					u.ops, u.failed = 1, 1
				}
			}
			after := totalsOf(sys.Metrics().Engine)
			d := after.sub(before)
			before = after
			out.engine.add(d)
			u.rounds = int(d.batches)
			u.exact = append([]counter{{"ops_fingerprint", res.OpsFP}}, engineCounters(d)...)
			if churn == 0 {
				// Without churn no write can be dropped, so the store's
				// final contents repeat too. (The count of gets that found
				// nothing does not: a get races the other client's writes.)
				u.exact = append(u.exact, counter{"store_fingerprint", res.StoreFP})
			}
			return u
		})
		// The churn driver leaves the network re-stabilized; check it did.
		if err := verify(sys); err != nil {
			out.units = append(out.units, unit{setup: k, ops: 1, failed: 1, err: fmt.Errorf("cluster %d after traffic: %w", k, err)})
		}
		out.last = sys
		out.invalidations += sys.Metrics().Routing.CacheInvalidations
		out.windows = append(out.windows, sys.RepairWindows()...)
	}
	return out
}

// churnSeedMask is what workload.Run xors a run's seed with to seed the
// draw of the run's churn events.
const churnSeedMask = 0x5DEECE66D

// joinSeed returns the first seed on the path whose churn events, drawn
// the way workload.Run draws them for a cluster of these peers, are all
// joins. The draw is a random mix of join, leave and fail, and while a
// departure is repaired about one lookup in a million walks into the
// departed peer and fails — how many, the race between clients and
// repair decides. A benchmark's operations must not fail, so the traffic
// races arrivals only; departures and their repair are the repair
// workload's.
func joinSeed(peers []ident.ID, events int, seed int64, path ...int) int64 {
	nw := rechord.NewNetwork(rechord.Config{})
	for _, id := range peers {
		nw.AddPeer(id)
	}
	path = append(path, 0)
	for try := 0; ; try++ {
		path[len(path)-1] = try
		s := subseed(seed, path...)
		joins := 0
		for _, ev := range churn.RandomEvents(nw, events, rand.New(rand.NewSource(s^churnSeedMask))) {
			if ev.Kind == "join" {
				joins++
			}
		}
		if joins == events {
			return s
		}
	}
}

// firstDivergence compares the exact counters of two passes over the
// same inputs and names the first that differs.
func firstDivergence(a, b *pass) error {
	if len(a.units) != len(b.units) {
		return fmt.Errorf("passes ran %d and %d units", len(a.units), len(b.units))
	}
	for i := range a.units {
		ua, ub := a.units[i], b.units[i]
		if len(ua.exact) != len(ub.exact) {
			return fmt.Errorf("unit %d: %d and %d counters", i, len(ua.exact), len(ub.exact))
		}
		for j, ca := range ua.exact {
			if cb := ub.exact[j]; ca != cb {
				return fmt.Errorf("unit %d: %s is %d in one pass and %d in the other", i, ca.name, ca.v, cb.v)
			}
		}
	}
	return nil
}

// failures joins the errors of a pass's units.
func (p *pass) failures() error {
	var errs []error
	for _, u := range p.units {
		if u.err != nil {
			errs = append(errs, u.err)
		}
	}
	return errors.Join(errs...)
}
