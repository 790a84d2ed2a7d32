package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/dht"
	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topogen"
	"repro/internal/wire"
)

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {6_000_000, 99.9},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// and statistics.median(v) print.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q3, md float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75, 3.5},
		{[]float64{10, 20}, 7.5, 22.5, 15}, // two points extrapolate
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 || median(c.v) != c.md {
			t.Errorf("%v: quartiles %v, %v median %v; want %v, %v, %v", c.v, q1, q3, median(c.v), c.q1, c.q3, c.md)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // sticks out of the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 20},
		{ID: 6, Parent: 3, Name: "grandchild", Start: 25, End: 25},
	}
	self := selfTimes(spans)
	// The children cover [10,50] and [90,100] of the parent: 50 of 100.
	want := map[spanID]int64{1: 50, 2: 12, 3: 30, 4: 30, 5: 8, 6: 0}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := selfDurations(spans, self, "child"); len(got) != 3 || got[0] != 12 || got[1] != 30 || got[2] != 30 {
		t.Errorf("selfDurations(child) = %v", got)
	}
}

func randomNetwork(n int, seed int64) *rechord.Network {
	rng := rand.New(rand.NewSource(seed))
	return topogen.Random().Build(topogen.RandomIDs(n, rng), rng, rechord.Config{Workers: 2})
}

// A decorated scheduler must be invisible to the runner: same rounds,
// same converged state, one span per step.
func TestTracedSchedulerReachesSameFingerprint(t *testing.T) {
	bare := randomNetwork(48, 5)
	want := sim.Run(context.Background(), bare, sim.Options{})

	rec := newRecorder()
	nw := randomNetwork(48, 5)
	parent := rec.begin("sim.run", 0, 3)
	got := sim.Run(context.Background(), &tracedScheduler{Scheduler: nw, rec: rec, parent: parent, unit: 3}, sim.Options{})
	rec.end(parent)

	if !want.Stable || !got.Stable || got.Rounds != want.Rounds || got.TotalMessages != want.TotalMessages {
		t.Fatalf("traced run %+v, bare run %+v", got, want)
	}
	if a, b := nw.StateFingerprint(nil), bare.StateFingerprint(nil); a != b {
		t.Fatalf("fingerprint %016x under the decorator, %016x bare", a, b)
	}
	spans := rec.snapshot()
	steps := durations(spans, "rechord.step")
	if len(steps) != nw.Time() {
		t.Fatalf("%d step spans for %d steps", len(steps), nw.Time())
	}
	for _, s := range spans[1:] {
		if s.Parent != parent || s.Unit != 3 || s.End < s.Start {
			t.Fatalf("bad step span %+v", s)
		}
	}
	if self := selfTimes(spans)[parent]; self < 0 || self > spans[0].dur() {
		t.Fatalf("sim.run self time %d of %d", self, spans[0].dur())
	}
}

func TestTracedResolverSpansUnderTheOp(t *testing.T) {
	nw, ids, err := churn.StableNetwork(context.Background(), 24, rand.New(rand.NewSource(2)), rechord.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	var op spanID
	var fallbacks atomic.Int64
	inner := failoverResolver{cache: routing.NewCache(nw), walk: routing.Walker{NW: nw}, fallbacks: &fallbacks}
	store := dht.NewWithResolver(nw, &tracedResolver{inner: inner, rec: rec, parent: &op})

	op = rec.begin("dht.put", 0, 0)
	owner, hops, err := store.Put(ids[0], "k", "v")
	rec.end(op)
	if err != nil {
		t.Fatal(err)
	}
	wantOwner, wantHops, _ := inner.Resolve(ids[0], dht.KeyID("k"))
	if owner != wantOwner || hops != wantHops {
		t.Fatalf("decorated store resolved (%v, %d), the resolver alone (%v, %d)", owner, hops, wantOwner, wantHops)
	}
	if v, _, err := store.Get(ids[3], "k"); err != nil || v != "v" {
		t.Fatalf("get = %q, %v", v, err)
	}
	spans := rec.snapshot()
	if len(spans) != 3 || spans[1].Name != "routing.resolve" || spans[1].Parent != op {
		t.Fatalf("spans %+v", spans)
	}
	if self := selfTimes(spans)[op]; self != spans[0].dur()-spans[1].dur() {
		t.Fatalf("put self time %d, want span %d minus resolve %d", self, spans[0].dur(), spans[1].dur())
	}
}

func TestTracedTransportKeepsTheRunIntact(t *testing.T) {
	script, err := wireScript(24, 9)
	if err != nil {
		t.Fatal(err)
	}
	wantFP, _, err := script.RunMonolith(rechord.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, log, met := newRecorder(), &frameLog{}, &obs.WireMetrics{}
	tr := &tracedTransport{inner: wire.NewChanNet(nil, 1, met), rec: rec, unit: 4, log: log}
	ln, err := tr.Listen("seed")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	res, err := runRanks(tr, ln, script, 3, met)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != wantFP {
		t.Fatalf("fingerprint %016x through the decorators, monolith %016x", res.Fingerprint, wantFP)
	}
	spans := rec.snapshot()
	if n := len(durations(spans, "wire.accept")); n != 2 {
		t.Fatalf("%d accept spans, want 2", n)
	}
	// Per round the seed receives one frame from and sends one bundle to
	// each of the two workers.
	var recvs, sends int
	for _, s := range spans {
		if s.Round > 0 && s.Name == "wire.seed.recv" {
			recvs++
		}
		if s.Round > 0 && s.Name == "wire.seed.send" {
			sends++
		}
	}
	if recvs != 2*res.Rounds || sends != 2*res.Rounds {
		t.Fatalf("%d recv and %d send spans for %d rounds of 2 workers", recvs, sends, res.Rounds)
	}
	if got := len(wireRounds(spans)); got != res.Rounds-1 {
		t.Fatalf("%d round durations for %d rounds", got, res.Rounds)
	}
	enc, dec, err := replayCodec(log.frames)
	if err != nil || enc <= 0 || dec <= 0 {
		t.Fatalf("codec replay of %d frames: %v MB/s, %v MB/s, %v", len(log.frames), enc, dec, err)
	}
}

func TestFirstDivergenceNamesTheCounter(t *testing.T) {
	mk := func(rounds uint64) *pass {
		return &pass{units: []unit{
			{exact: []counter{{"rounds", 7}, {"rechord.activated", 90}}},
			{exact: []counter{{"rounds", rounds}, {"rechord.activated", 40}}},
		}}
	}
	if err := firstDivergence(mk(5), mk(5)); err != nil {
		t.Fatalf("identical passes: %v", err)
	}
	err := firstDivergence(mk(5), mk(6))
	if err == nil || !strings.Contains(err.Error(), "unit 1: rounds is 5") {
		t.Fatalf("diverging passes: %v", err)
	}
	if err := firstDivergence(mk(5), &pass{}); err == nil {
		t.Fatal("passes of different length compare equal")
	}
}

func TestSubseed(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for i := 0; i < 50; i++ {
			s := subseed(seed, i)
			if s < 0 || seen[s] || s != subseed(seed, i) {
				t.Fatalf("subseed(%d, %d) = %d: negative, repeated or unstable", seed, i, s)
			}
			seen[s] = true
		}
	}
	if subseed(1, 2, 3) == subseed(1, 3, 2) {
		t.Fatal("subseed ignores the order of the path")
	}
}

// lastLine parses the result line a run printed last.
func lastLine(t *testing.T, out string) (result, map[string]json.RawMessage) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	var raw map[string]json.RawMessage
	last := []byte(lines[len(lines)-1])
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if err := json.Unmarshal(last, &raw); err != nil {
		t.Fatal(err)
	}
	return res, raw
}

// Every workload, untraced and traced, end to end at the smoke size:
// the output contract holds, the checks pass, the trace is written.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloads {
		for trace, specs := range [][]spec{endToEnd, perLayer} {
			t.Run(name+[]string{"/untraced", "/traced"}[trace], func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", []string{"0", "1"}[trace],
					"-smoke", "-out", dir, "-append", filepath.Join(dir, "set.jsonl")}
				if err := run(args, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				res, raw := lastLine(t, out.String())
				if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
					t.Fatalf("result keys %v, want exactly correct, attempted, failed, metrics", raw)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(specs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: %+v (present %v), want unit %s", s.name, m, ok, s.unit)
					}
					if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", s.name, m.Value)
					}
				}
				if !strings.Contains(out.String(), "GOMAXPROCS=2") || !strings.Contains(out.String(), "seed=3") {
					t.Errorf("the environment line is missing:\n%s", out.String())
				}
				if trace == 1 {
					data, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".jsonl"))
					if err != nil || len(data) == 0 {
						t.Fatalf("trace file: %d bytes, %v", len(data), err)
					}
					var s span
					if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &s); err != nil || s.Name == "" {
						t.Fatalf("first span %+v: %v", s, err)
					}
					if v := res.Metrics["trace.overhead_share"].Value; v <= -1 {
						t.Errorf("trace.overhead_share = %v", v)
					}
				}
				set, err := loadSet(filepath.Join(dir, "set.jsonl"))
				if err != nil || (trace == 0 && len(set[name]["setup_s"]) != 1) || (trace == 1 && len(set) != 0) {
					t.Fatalf("result set %v: %v", set, err)
				}
			})
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nonesuch", "-smoke"},
		{"-workload", "converge", "-seconds", "0"},
		{"-workload", "converge", "-trace", "2"},
		{"-compare", "only-one.jsonl"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) printed a result", args)
		}
	}
}

// BENCHMARK.json at the root repeats what the runner prints; this keeps
// the two in step and the file inside the contract's limits.
func TestBenchmarkJSONMatchesTheRunner(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if keys[k] == nil {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract allows exactly 6", len(keys))
	}
	bm, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the runner has %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q, the runner's is %q", i, w.Name, workloads[i])
		}
	}
	check := func(kind string, listed []boundedSpec, specs []spec, bounded bool) {
		if len(listed) != len(specs) {
			t.Fatalf("%d %s metrics listed, the runner prints %d", len(listed), kind, len(specs))
		}
		for i, l := range listed {
			if l.Name != specs[i].name || l.Unit != specs[i].unit {
				t.Errorf("%s metric %d is %s [%s], the runner's is %s [%s]", kind, i, l.Name, l.Unit, specs[i].name, specs[i].unit)
			}
			if l.Better != "lower" && l.Better != "higher" {
				t.Errorf("%s: better = %q", l.Name, l.Better)
			}
			if bounded && (l.Bound <= 0 || l.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", l.Name, l.Bound)
			}
		}
	}
	check("end-to-end", bm.EndToEnd, endToEnd, true)
	check("per-layer", bm.PerLayer, perLayer, false)
	if bm.EndToEnd[0].Name != "setup_s" || bm.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be listed, lower is better: %+v", bm.EndToEnd[0])
	}
}

func TestJudge(t *testing.T) {
	lower := boundedSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := boundedSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 {
		return []float64{c * 0.99, c, c, c * 1.01, c, c * 0.995, c * 1.005, c, c, c}
	}
	wide := func(c float64) []float64 {
		return []float64{c * 0.7, c * 0.8, c * 0.9, c, c, c * 1.1, c * 1.2, c * 1.3, c, c}
	}
	for _, c := range []struct {
		name string
		s    boundedSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(101), within},
		{"slower", lower, tight(100), tight(115), worse},
		{"faster", lower, tight(100), tight(60), within},
		{"throughput down", higher, tight(100), tight(85), worse},
		{"throughput up", higher, tight(100), tight(130), within},
		{"too noisy to tell", lower, wide(100), wide(101), unresolved},
		{"noisy but every run better", lower, wide(100), wide(40), within},
	} {
		if got, _ := judge(c.s, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	bm := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bm, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644)
	write := func(file string, setup, ops float64) string {
		path := filepath.Join(dir, file)
		for i := 0; i < 4; i++ {
			r := record{"w", int64(i), 0, result{true, 1, 0, map[string]metric{
				"setup_s": {setup + float64(i)/1000, "s"}, "ops_per_s": {ops + float64(i), "1/s"}}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		// A traced run in the set is ignored.
		appendRecord(path, record{"w", 9, 1, result{true, 1, 0, map[string]metric{"setup_s": {99, "s"}}}})
		return path
	}
	a, same, slow := write("a.jsonl", 1, 1000), write("same.jsonl", 1.01, 995), write("slow.jsonl", 1, 700)

	var out bytes.Buffer
	if err := run([]string{"-benchmark", bm, "-compare", a, same}, &out); err != nil {
		t.Fatalf("agreeing sets: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), within); n != 2 {
		t.Fatalf("%d rows within bound, want 2:\n%s", n, out.String())
	}
	out.Reset()
	if err := run([]string{"-benchmark", bm, "-compare", a, slow}, &out); err == nil || !strings.Contains(out.String(), worse) {
		t.Fatalf("a 30%% throughput drop passed: %v\n%s", err, out.String())
	}
}

// The budget is measured time of undisturbed units: a set-up runs at
// least one unit, stops once its share is spent, is stretched by
// disturbed units only so far, and a replay runs exactly what it is told.
func TestPlanRun(t *testing.T) {
	count := func(p plan, setup, setups int, u unit) int {
		out := &pass{}
		p.run(out, setup, setups, func(int) unit { return u })
		for _, got := range out.units {
			if got.setup != setup {
				t.Errorf("unit on set-up %d, want %d", got.setup, setup)
			}
		}
		return len(out.units)
	}
	quiet := unit{wall: 400 * time.Millisecond}
	stolen := unit{wall: 400 * time.Millisecond, stolen: 100 * time.Millisecond}
	if !stolen.disturbed() || quiet.disturbed() || (unit{wall: time.Second, stolen: 50 * time.Millisecond}).disturbed() {
		t.Fatal("disturbed means more than 3 % of wall x 2 processors stolen")
	}
	p := plan{budget: 3 * time.Second}
	if n := count(p, 1, 3, quiet); n != 3 { // 1 s share: 0.4, 0.8, 1.2
		t.Errorf("%d quiet units in a 1 s share, want 3", n)
	}
	if n := count(p, 0, 3, stolen); n != 5 { // stretched to 2 s on the wall clock
		t.Errorf("%d disturbed units before the stretch limit, want 5", n)
	}
	if n := count(plan{budget: time.Millisecond}, 0, 1, quiet); n != 1 {
		t.Errorf("%d units on a spent budget, want the one every set-up gets", n)
	}
	r := plan{replay: []int{2, 0}}
	if a, b := count(r, 0, 2, quiet), count(r, 1, 2, quiet); a != 2 || b != 0 {
		t.Errorf("replay ran %d and %d units, want 2 and 0", a, b)
	}
	// Fewer than three quiet units: everything that ran is measured.
	mixed := &pass{units: []unit{quiet, stolen, quiet, {}}}
	if n := len(mixed.measured()); n != 3 {
		t.Errorf("%d measured units of 2 quiet + 1 disturbed + 1 that never ran, want 3", n)
	}
	mixed.units = append(mixed.units, quiet)
	if n := len(mixed.measured()); n != 3 {
		t.Errorf("%d measured units of 3 quiet + 1 disturbed, want the 3 quiet", n)
	}
}
