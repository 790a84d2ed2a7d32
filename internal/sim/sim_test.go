package sim

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
)

func lineNetwork(n int, seed int64) (*rechord.Network, []ident.ID) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[ident.ID]bool{}
	var ids []ident.ID
	for len(ids) < n {
		id := ident.ID(rng.Uint64())
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	nw := rechord.NewNetwork(rechord.Config{Workers: 1})
	for _, id := range ids {
		nw.AddPeer(id)
	}
	for i := 1; i < len(ids); i++ {
		nw.SeedEdge(ref.Real(ids[i-1]), ref.Real(ids[i]), graph.Unmarked)
	}
	return nw, ids
}

func TestRunReachesFixedPoint(t *testing.T) {
	nw, ids := lineNetwork(12, 1)
	idl := rechord.ComputeIdeal(ids)
	res := Run(context.Background(), nw, Options{Ideal: idl, TrackSeries: true})
	if !res.Stable {
		t.Fatal("network did not stabilize")
	}
	if res.Rounds <= 0 {
		t.Errorf("Rounds = %d, want positive", res.Rounds)
	}
	if res.AlmostStableRound < 0 || res.AlmostStableRound > res.Rounds+1 {
		t.Errorf("AlmostStableRound = %d, Rounds = %d", res.AlmostStableRound, res.Rounds)
	}
	if res.TotalMessages <= 0 {
		t.Error("no messages counted")
	}
	if len(res.Series) == 0 {
		t.Fatal("series not tracked")
	}
	if res.Series[0].RealNodes != 12 {
		t.Errorf("series real nodes = %d, want 12", res.Series[0].RealNodes)
	}
}

func TestRunMaxRoundsBound(t *testing.T) {
	nw, _ := lineNetwork(30, 2)
	res := Run(context.Background(), nw, Options{MaxRounds: 2})
	if res.Stable {
		t.Error("2 rounds cannot stabilize 30 peers from a line")
	}
	if res.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", res.Rounds)
	}
}

func TestRunToStableError(t *testing.T) {
	nw, _ := lineNetwork(30, 3)
	if _, err := RunToStable(context.Background(), nw, Options{MaxRounds: 2}); err == nil {
		t.Error("RunToStable must report non-convergence")
	}
}

func TestMeasureCountsKinds(t *testing.T) {
	nw, _ := lineNetwork(8, 4)
	Run(context.Background(), nw, Options{})
	m := Measure(nw)
	if m.RealNodes != 8 {
		t.Errorf("RealNodes = %d, want 8", m.RealNodes)
	}
	if m.VirtualNodes <= 0 {
		t.Error("no virtual nodes at stabilization")
	}
	if m.UnmarkedEdges <= 0 {
		t.Error("no unmarked edges at stabilization")
	}
	if m.RingEdges < 2 {
		t.Errorf("RingEdges = %d, want >= 2", m.RingEdges)
	}
	if m.NormalEdges() != m.UnmarkedEdges+m.RingEdges {
		t.Error("NormalEdges mismatch")
	}
	if m.TotalEdges() != m.NormalEdges()+m.ConnectionEdges {
		t.Error("TotalEdges mismatch")
	}
	if m.TotalNodes() != m.RealNodes+m.VirtualNodes {
		t.Error("TotalNodes mismatch")
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	if DefaultMaxRounds(0) <= 0 || DefaultMaxRounds(1) <= 0 {
		t.Error("DefaultMaxRounds must be positive")
	}
	if DefaultMaxRounds(100) <= DefaultMaxRounds(10) {
		t.Error("DefaultMaxRounds must grow with n")
	}
	// Must exceed the paper's O(n log n) with slack.
	if DefaultMaxRounds(105) < 105*7 {
		t.Errorf("DefaultMaxRounds(105) = %d, too small", DefaultMaxRounds(105))
	}
}

func TestSeriesMessagesRecorded(t *testing.T) {
	nw, _ := lineNetwork(6, 5)
	res := Run(context.Background(), nw, Options{TrackSeries: true})
	total := 0
	for _, m := range res.Series {
		total += m.Messages
	}
	if total != res.TotalMessages {
		t.Errorf("series messages %d != total %d", total, res.TotalMessages)
	}
}

// exported is Measure as it used to be computed: the counts of the
// materialized nw.Graph(), the reference the in-place census must equal.
func exported(nw *rechord.Network) RoundMetrics {
	g := nw.Graph()
	return RoundMetrics{
		Round:           nw.Round(),
		RealNodes:       nw.NumPeers(),
		VirtualNodes:    g.NumNodes() - nw.NumPeers(),
		UnmarkedEdges:   g.NumEdges(graph.Unmarked),
		RingEdges:       g.NumEdges(graph.Ring),
		ConnectionEdges: g.NumEdges(graph.Connection),
	}
}

// TestMeasureMatchesGraphExport: the direct census equals the counts of
// the exported graph field by field — before the first round, on every
// mid-convergence state, and right after a join, a graceful leave
// (pending one-shot goodbyes) and a crash (dangling references, messages
// to deleted levels) — under the synchronous and the asynchronous
// scheduler.
func TestMeasureMatchesGraphExport(t *testing.T) {
	for _, async := range []bool{false, true} {
		nw, ids := lineNetwork(40, 11)
		var s rechord.Scheduler = nw
		name := "sync"
		if async {
			name = "async"
			s = rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.5, Delay: rechord.UniformDelay{Max: 3}}, rand.New(rand.NewSource(5)))
		}
		check := func(when string) {
			t.Helper()
			if got, want := Measure(nw), exported(nw); got != want {
				t.Fatalf("%s, %s (t=%d): census %+v, graph export %+v", name, when, s.Time(), got, want)
			}
		}
		settle := func(when string) {
			t.Helper()
			for i := 0; !s.Quiescent(); i++ {
				if i > DefaultBudget(s) {
					t.Fatalf("%s: no fixed point %s", name, when)
				}
				check("converging " + when)
				s.Step()
			}
			check("settled " + when)
		}
		check("seeded")
		settle("from the line")
		events := []func() error{
			func() error { return nw.Join(ident.ID(0x1234567890abcdef), ids[3]) },
			func() error { return nw.Leave(ids[7]) },
			func() error { return nw.Fail(ids[20]) },
			func() error { return nw.Fail(ids[21]) },
			func() error { return nw.Join(ids[20], ids[1]) }, // rejoin under a departed id
		}
		for i, ev := range events {
			if err := ev(); err != nil {
				t.Fatal(err)
			}
			check("right after an event")
			if i%2 == 0 {
				// Leave the repair half done before the next event lands.
				for k := 0; k < 3; k++ {
					s.Step()
					check("mid-repair")
				}
				continue
			}
			settle("after an event")
		}
		settle("at the end")
	}
}
