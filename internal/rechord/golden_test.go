package rechord_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
	"repro/internal/topogen"
)

// The lockstep suites compare the engine with the reference engine, which
// shares the rule bodies with it, and with itself (Workers 1 vs N,
// monolith vs partitions), so a refactor that shifts every side the same
// way passes them all. The golden file pins the observable behaviour
// ACROSS commits: it was recorded from the engine as it stood before the
// one-commit-path refactor, and
// this test asserts every later engine reproduces it bit for bit —
// per-step state, RNG consumption (EventFingerprint), time to
// quiescence, the in-flight message count, and the partitions' ordered
// cross-partition effects.
//
// Regenerate (only when behaviour is MEANT to change) with
//
//	go test ./internal/rechord -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current engine")

const goldenPath = "testdata/golden.json"

// goldenEvent is one scripted membership change, applied before the
// step with the same number. rejoin brings back the most recently
// departed identifier.
type goldenEvent struct {
	step int
	kind string // join | leave | fail | rejoin
	pick int    // victim / contact index into the sorted live peers
}

type goldenCase struct {
	name   string
	seed   int64
	n      int
	gen    topogen.Generator
	script []goldenEvent
}

func goldenCases() []goldenCase {
	churn := []goldenEvent{
		{4, "join", 2}, {9, "leave", 5}, {15, "fail", 1}, {22, "rejoin", 3},
		{30, "join", 7}, {37, "fail", 0}, {45, "rejoin", 4}, {52, "leave", 6},
	}
	burst := []goldenEvent{
		{3, "fail", 2}, {3, "fail", 6}, {4, "join", 0}, {5, "rejoin", 1}, {6, "rejoin", 3}, {20, "leave", 4},
	}
	return []goldenCase{
		{"random-churn", 11, 14, topogen.Random(), churn},
		{"garbage-churn", 23, 12, topogen.Garbage(), churn},
		{"line-burst", 37, 16, topogen.Line(), burst},
		{"star-churn", 41, 10, topogen.Star(), churn},
		{"prestabilized-burst", 59, 18, topogen.PreStabilized(), burst},
		{"bridged-churn", 67, 15, topogen.BridgedPartitions(3), churn},
		{"loopy-quiet", 73, 13, topogen.Loopy(), nil},
		{"clique-burst", 89, 9, topogen.Clique(), burst},
	}
}

// goldenScript replays a case's membership script against any
// executor: it owns the fresh-identifier stream and the departed list,
// so every executor of the same case sees the same operations.
type goldenScript struct {
	events   []goldenEvent
	rng      *rand.Rand
	departed []ident.ID
}

func newGoldenScript(c goldenCase) *goldenScript {
	return &goldenScript{events: c.script, rng: rand.New(rand.NewSource(c.seed ^ 0x60d))}
}

// apply runs the events scheduled for the step. peers is the sorted
// live membership; join/leave/fail are the executor's operations.
func (s *goldenScript) apply(t *testing.T, step int, peers func() []ident.ID,
	join func(id, contact ident.ID) error, leave, fail func(id ident.ID) error) int {
	t.Helper()
	applied := 0
	for _, ev := range s.events {
		if ev.step != step {
			continue
		}
		applied++
		live := peers()
		var err error
		switch kind := ev.kind; {
		case kind == "rejoin" && len(s.departed) > 0:
			back := s.departed[len(s.departed)-1]
			s.departed = s.departed[:len(s.departed)-1]
			err = join(back, live[ev.pick%len(live)])
		case kind == "join" || kind == "rejoin" || len(live) < 4:
			err = join(ident.ID(s.rng.Uint64()|1), live[ev.pick%len(live)])
		default:
			victim := live[ev.pick%len(live)]
			s.departed = append(s.departed, victim)
			if kind == "leave" {
				err = leave(victim)
			} else {
				err = fail(victim)
			}
		}
		if err != nil {
			t.Fatalf("step %d %s: %v", step, ev.kind, err)
		}
	}
	return applied
}

func (s *goldenScript) lastStep() int {
	last := 0
	for _, ev := range s.events {
		if ev.step > last {
			last = ev.step
		}
	}
	return last
}

// goldenRun is what one execution is pinned to.
type goldenRun struct {
	Chain    string `json:"chain"`  // per-step (StateFingerprint, InFlight) chain digest
	Events   string `json:"events"` // final EventFingerprint (async only)
	Steps    int    `json:"steps"`  // steps until quiescent after the script's last event
	InFlight int    `json:"inflight"`
}

func hex(v uint64) string { return fmt.Sprintf("%016x", v) }

func chainMix(h, w uint64) uint64 {
	h ^= w
	h *= 0x100000001b3
	h ^= h >> 31
	return h
}

func (c goldenCase) build(workers int) *rechord.Network {
	rng := rand.New(rand.NewSource(c.seed))
	ids := topogen.RandomIDs(c.n, rng)
	return c.gen.Build(ids, rng, rechord.Config{Workers: workers})
}

const goldenMaxSteps = 20000

// cutWatch applies membership changes to a network and remembers
// whether its real graph was cut from outside the protocol: seeded
// disconnected, or disconnected by a Fail itself (liveConnected true
// just before the call and false just after). Theorem 1.1 promises the
// ideal topology from any weakly connected state, so a quiescent network
// must match the oracle unless it ends disconnected after such a cut. A
// graceful Leave is the protocol's own and is never exempt here.
type cutWatch struct {
	*rechord.Network
	cut bool
}

func newCutWatch(nw *rechord.Network) *cutWatch {
	return &cutWatch{Network: nw, cut: !liveConnected(nw)}
}

func (c *cutWatch) Fail(id ident.ID) error { return c.watch(c.Network.Fail, id) }

func (c *cutWatch) watch(change func(ident.ID) error, id ident.ID) error {
	before := liveConnected(c.Network)
	err := change(id)
	c.cut = c.cut || before && !liveConnected(c.Network)
	return err
}

// offOracle reports how the quiescent network differs from the oracle's
// state, or nil if it does not or the exemption above applies.
func (c *cutWatch) offOracle() error {
	err := rechord.ComputeIdeal(c.Peers()).Matches(c.Network)
	if err != nil && c.cut && !liveConnected(c.Network) {
		return nil
	}
	return err
}

// liveConnected reports whether the graph the real nodes give is weakly
// connected over the live peers. A reference to an identifier nobody
// holds (a crashed peer's, or one seeded at random) joins nothing: the
// next purge drops it, so it must not bridge two components here.
func liveConnected(nw *rechord.Network) bool {
	g := graph.New()
	for _, id := range nw.Peers() {
		g.AddNode(ref.Real(id))
	}
	for _, e := range nw.Graph().AllEdges() {
		if nw.Peer(e.To.Owner) != nil {
			g.AddEdge(ref.Real(e.From.Owner), ref.Real(e.To.Owner), e.Kind)
		}
	}
	return g.RealWeaklyConnected()
}

// runGoldenScheduler drives the case through sched (the synchronous
// engine or an AsyncRunner over nw) until it is quiescent past the
// script's end. Quiescence must be the oracle's state (see cutWatch).
func runGoldenScheduler(t *testing.T, c goldenCase, nw *rechord.Network, sched rechord.Scheduler) goldenRun {
	t.Helper()
	script := newGoldenScript(c)
	chain := uint64(0xcbf29ce484222325)
	cw := newCutWatch(nw)
	for step := 1; ; step++ {
		if step > goldenMaxSteps {
			t.Fatalf("%s: not quiescent after %d steps", c.name, goldenMaxSteps)
		}
		script.apply(t, step, nw.Peers, cw.Join, cw.Leave, cw.Fail)
		sched.Step()
		rechord.AssertCleanPeersStable(t, sched)
		chain = chainMix(chainMix(chain, nw.StateFingerprint(nil)), uint64(sched.InFlight()))
		if step >= script.lastStep() && sched.Quiescent() {
			if err := cw.offOracle(); err != nil {
				t.Fatalf("%s: quiescent at step %d outside the oracle's state: %v", c.name, step, err)
			}
			run := goldenRun{Chain: hex(chain), Steps: step, InFlight: sched.InFlight()}
			if a, ok := sched.(*rechord.AsyncRunner); ok {
				run.Events = hex(a.EventFingerprint())
			}
			return run
		}
	}
}

type sinkEvent struct {
	kind     byte // 'B' bucket, 'O' one-shot, 'P' publish
	from, to ident.ID
	n        int
	sum      uint64 // content digest
}

func msgsDigest(ms []rechord.Message) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, m := range ms {
		for _, w := range [...]uint64{uint64(m.To.Owner), uint64(m.To.Level()), uint64(m.Kind), uint64(m.Add.Owner), uint64(m.Add.Level())} {
			h = chainMix(h, w)
		}
	}
	return h
}

// effectLog lists one process's effects as sink events: buckets, then
// one-shots, then publishes, each kind in emission order.
func effectLog(e *rechord.Effects) []sinkEvent {
	var log []sinkEvent
	for _, u := range e.Buckets {
		log = append(log, sinkEvent{'B', u.From, u.To, len(u.Msgs), msgsDigest(u.Msgs)})
	}
	for _, u := range e.OneShots {
		log = append(log, sinkEvent{'O', 0, u.To, len(u.Msgs), msgsDigest(u.Msgs)})
	}
	for _, p := range e.Publishes {
		h := chainMix(0xcbf29ce484222325, uint64(len(p.Views)-1)) // m, the max level
		for _, v := range p.Views {
			for _, w := range [...]uint64{uint64(v.RL.Owner), uint64(v.RL.Level()), uint64(v.RR.Owner), uint64(v.RR.Level())} {
				h = chainMix(h, w)
			}
			if v.HasRL {
				h = chainMix(h, 1)
			}
			if v.HasRR {
				h = chainMix(h, 2)
			}
		}
		log = append(log, sinkEvent{'P', p.Owner, 0, len(p.Views), h})
	}
	return log
}

// goldenPartitionRun is the pinned outcome of one P-way partitioned
// execution.
type goldenPartitionRun struct {
	SinkLog     string `json:"sink_log"` // digest of every rank's effects (effectLog), round by round
	SinkEvents  int    `json:"sink_events"`
	Rounds      int    `json:"rounds"`
	Fingerprint string `json:"fingerprint"` // XOR of the partitions' final fingerprints
}

// runGoldenPartition executes the case as nprocs partitions exchanging
// effects by hand, returning the digest plus the raw per-round ordered
// log (for the determinism test's diagnostics).
func runGoldenPartition(t *testing.T, c goldenCase, nprocs int) (goldenPartitionRun, []sinkEvent) {
	t.Helper()
	var parts []*rechord.Partition
	for k := 0; k < nprocs; k++ {
		parts = append(parts, rechord.NewPartition(c.build(1), hostedBy(k, nprocs)))
	}
	scripts := make([]*goldenScript, nprocs)
	for k := range scripts {
		scripts[k] = newGoldenScript(c)
	}
	digest := uint64(0xcbf29ce484222325)
	var full []sinkEvent
	for round := 1; ; round++ {
		if round > goldenMaxSteps {
			t.Fatalf("%s/%d-way: not quiescent after %d rounds", c.name, nprocs, goldenMaxSteps)
		}
		ops := 0
		for k, p := range parts {
			ops = scripts[k].apply(t, round, p.Network().Peers, p.Join, p.Leave, p.Fail)
		}
		for _, p := range parts {
			p.Step()
			// Under churn too: a departure's final output reaches each
			// recipient once, at its host, in the round of the departure.
			rechord.AssertCleanPeersStable(t, p)
		}
		exchanged := false
		for k, e := range exchangeEffects(parts) {
			for _, ev := range effectLog(&e) {
				for _, w := range [...]uint64{uint64(round), uint64(k), uint64(ev.kind), uint64(ev.from), uint64(ev.to), uint64(ev.n), ev.sum} {
					digest = chainMix(digest, w)
				}
				full = append(full, ev)
			}
			exchanged = exchanged || e.Len() > 0
		}
		quiet := !exchanged && ops == 0 && round >= scripts[0].lastStep()
		for _, p := range parts {
			quiet = quiet && p.Quiescent()
		}
		if quiet {
			var fp uint64
			for _, p := range parts {
				fp ^= p.Fingerprint()
			}
			return goldenPartitionRun{SinkLog: hex(digest), SinkEvents: len(full), Rounds: round, Fingerprint: hex(fp)}, full
		}
	}
}

// goldenFile is the committed record: scheduler runs keyed by
// scheduler then case name, partition runs by case/width.
type goldenFile struct {
	Runs      map[string]map[string]goldenRun `json:"runs"`
	Partition map[string]goldenPartitionRun   `json:"partition"`
}

// goldenSchedulers lists the single-process schedulers every case runs
// under; a nil config is the synchronous engine.
var goldenSchedulers = []struct {
	name string
	cfg  *rechord.AsyncConfig
}{
	{"sync", nil},
	{"async_uniform", &rechord.AsyncConfig{ActivationProb: 0.5, Delay: rechord.UniformDelay{Max: 3}}},
	{"async_pareto", &rechord.AsyncConfig{ActivationProb: 0.5, Delay: rechord.ParetoDelay{Alpha: 1.5, Max: 12}}},
}

func loadGolden(t *testing.T) goldenFile {
	t.Helper()
	var g goldenFile
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s: %v (record it with -update-golden)", goldenPath, err)
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return g
}

// TestGoldenFingerprints replays every case in every scheduler, for
// Workers 1 and 8, against the committed record.
func TestGoldenFingerprints(t *testing.T) {
	got := goldenFile{Runs: map[string]map[string]goldenRun{}, Partition: map[string]goldenPartitionRun{}}
	var want goldenFile
	if !*updateGolden {
		want = loadGolden(t)
	}
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, s := range goldenSchedulers {
				if got.Runs[s.name] == nil {
					got.Runs[s.name] = map[string]goldenRun{}
				}
				for _, workers := range []int{1, 8} {
					nw := c.build(workers)
					var sched rechord.Scheduler = nw
					if s.cfg != nil {
						sched = rechord.NewAsyncRunner(nw, *s.cfg, rand.New(rand.NewSource(c.seed+99)))
					}
					run := runGoldenScheduler(t, c, nw, sched)
					if workers == 1 {
						got.Runs[s.name][c.name] = run
					} else if w1 := got.Runs[s.name][c.name]; run != w1 {
						t.Errorf("%s: Workers=%d run %+v differs from Workers=1 run %+v", s.name, workers, run, w1)
					}
					if w, ok := want.Runs[s.name][c.name]; !*updateGolden && (!ok || w != run) {
						t.Errorf("%s Workers=%d: got %+v, golden %+v (recorded: %v)", s.name, workers, run, w, ok)
					}
				}
			}
			for _, nprocs := range []int{2, 4} {
				key := fmt.Sprintf("%s/%d-way", c.name, nprocs)
				run, _ := runGoldenPartition(t, c, nprocs)
				got.Partition[key] = run
				if w, ok := want.Partition[key]; !*updateGolden && (!ok || w != run) {
					t.Errorf("%s: got %+v, golden %+v (recorded: %v)", key, run, w, ok)
				}
			}
		})
	}
	if *updateGolden && !t.Failed() {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
	}
}

// TestGoldenScriptsMatchReference replays every case's script on the
// synchronous engine, Workers 1 and 8, against the reference engine,
// compared — and the dependency index audited — after every round,
// until quiescent past the script's end.
func TestGoldenScriptsMatchReference(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			l := rechord.NewLockstep(c.build(1), c.build(8))
			script := newGoldenScript(c)
			for step := 1; step <= script.lastStep() || !l.Nets[0].Quiescent(); step++ {
				if step > goldenMaxSteps {
					t.Fatalf("not quiescent after %d rounds", goldenMaxSteps)
				}
				script.apply(t, step, l.Ref.Peers, l.Join, l.Leave, l.Fail)
				if err := l.Step(); err != nil {
					t.Fatal(err)
				}
				for _, nw := range l.Nets {
					rechord.CheckDepIndex(t, nw, fmt.Sprintf("step %d", step))
					rechord.CheckPurgeMarks(t, nw, fmt.Sprintf("step %d", step))
				}
			}
		})
	}
}

// TestFreezeMatchesScratchGoldenScripts replays every case's script on the
// synchronous engine and, after every round, replays each frontier peer:
// the output diff and the incremental freeze must equal the from-scratch
// oracles on the outputs the protocol actually produces.
func TestFreezeMatchesScratchGoldenScripts(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			nw := c.build(1)
			script := newGoldenScript(c)
			replayed := 0
			for step := 1; step <= script.lastStep() || !nw.Quiescent(); step++ {
				if step > goldenMaxSteps {
					t.Fatalf("not quiescent after %d rounds", goldenMaxSteps)
				}
				script.apply(t, step, nw.Peers, nw.Join, nw.Leave, nw.Fail)
				nw.Step()
				replayed += rechord.CheckFreeze(t, nw)
			}
			if replayed == 0 {
				t.Fatal("no frontier peer replayed")
			}
		})
	}
}

// TestPartitionSinkOrderDeterministic: two identical partitioned runs
// emit the identical ordered (kind, from, to, len) sink log — the
// "ordered sink traffic" contract of the barrier, which a map-order
// publish flush used to break.
func TestPartitionSinkOrderDeterministic(t *testing.T) {
	c := goldenCase{name: "sink-order", seed: 5, n: 64, gen: topogen.Random(), script: []goldenEvent{{3, "join", 1}, {5, "fail", 9}}}
	for _, nprocs := range []int{2, 4} {
		_, a := runGoldenPartition(t, c, nprocs)
		_, b := runGoldenPartition(t, c, nprocs)
		if len(a) != len(b) {
			t.Fatalf("%d-way: %d sink events vs %d", nprocs, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%d-way: sink event %d of %d differs between identical runs: %+v vs %+v", nprocs, i, len(a), a[i], b[i])
			}
		}
	}
}

// asyncExec drives an AsyncRunner's network through a golden script.
type asyncExec struct{ *rechord.AsyncRunner }

func (a asyncExec) Join(id, contact ident.ID) error { return a.Network().Join(id, contact) }
func (a asyncExec) Leave(id ident.ID) error         { return a.Network().Leave(id) }
func (a asyncExec) Fail(id ident.ID) error          { return a.Network().Fail(id) }

// TestStandingFlowGoldenScripts replays every case's script under the
// synchronous engine, the 2- and 4-way partitions and the async runner
// (pareto delays, so handoffs stay in flight across changes). After
// every membership op, step and exchange the standing buckets must keep
// the contribution invariant and no recycled block may be live
// (CheckStandingFlow), every rank's dependency index must mirror its
// state (CheckDepIndex; Partition.Apply writes it through the same
// applier as the barrier), and every op a step commits must be a rewrite to
// other messages or a deletion (BucketWatch.Check; not under the async
// runner, whose one-shot handoffs are ops that leave no bucket).
func TestStandingFlowGoldenScripts(t *testing.T) {
	type executor interface {
		rechord.Scheduler
		Join(id, contact ident.ID) error
		Leave(id ident.ID) error
		Fail(id ident.ID) error
	}
	for _, c := range goldenCases() {
		for _, nprocs := range []int{0, 1, 2, 4} {
			name := fmt.Sprintf("%s/%d-way", c.name, nprocs)
			if nprocs == 0 {
				name = c.name + "/async"
			}
			t.Run(name, func(t *testing.T) {
				var execs []executor
				var parts []*rechord.Partition
				async := nprocs == 0
				switch nprocs {
				case 0:
					cfg := rechord.AsyncConfig{ActivationProb: 0.5, Delay: rechord.ParetoDelay{Alpha: 1.5, Max: 12}}
					execs, nprocs = append(execs, asyncExec{rechord.NewAsyncRunner(c.build(1), cfg, rand.New(rand.NewSource(c.seed+99)))}), 1
				case 1:
					execs = append(execs, c.build(1))
				}
				for k := 0; nprocs > 1 && k < nprocs; k++ {
					p := rechord.NewPartition(c.build(1), hostedBy(k, nprocs))
					execs, parts = append(execs, p), append(parts, p)
				}
				scripts := make([]*goldenScript, nprocs)
				for k := range scripts {
					scripts[k] = newGoldenScript(c)
				}
				check := func(e executor, when string) {
					rechord.CheckStandingFlow(t, e, when)
					rechord.CheckDepIndex(t, e.Network(), when)
					rechord.CheckPurgeMarks(t, e.Network(), when)
				}
				for round := 1; ; round++ {
					if round > goldenMaxSteps {
						t.Fatalf("not quiescent after %d rounds", goldenMaxSteps)
					}
					ops := 0
					for k, e := range execs {
						ops = scripts[k].apply(t, round, e.Network().Peers, e.Join, e.Leave, e.Fail)
						check(e, fmt.Sprintf("round %d, rank %d, after the ops", round, k))
					}
					for k, e := range execs {
						when := fmt.Sprintf("round %d, rank %d, after the step", round, k)
						w := rechord.WatchBuckets(e.Network())
						e.Step()
						if !async {
							w.Check(t, when)
						}
						check(e, when)
					}
					exchanged := false
					for _, eff := range exchangeEffects(parts) {
						exchanged = exchanged || eff.Len() > 0
					}
					quiet := !exchanged && ops == 0 && round >= scripts[0].lastStep()
					for k, e := range execs {
						check(e, fmt.Sprintf("round %d, rank %d, after the exchange", round, k))
						quiet = quiet && e.Quiescent()
					}
					if quiet {
						return
					}
				}
			})
		}
	}
}
