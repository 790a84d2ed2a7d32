// Package experiments contains one runner per figure and theorem-level
// claim of the paper's evaluation (Section 5), mapped in DESIGN.md:
//
//	Fig5       — edges and virtual nodes vs. real nodes at stabilization
//	Fig6       — rounds to stable and "almost stable" vs. real nodes
//	Fig7       — total edges vs. total nodes in the final graph
//	Convergence — Theorem 1.1's O(n log n) bound across topologies
//	Join/Leave — Theorems 4.1 and 4.2 recovery costs
//	Fact21     — Chord subgraph check
//	ChordFail  — plain Chord does not self-stabilize; Re-Chord does
//	Budget     — Section 2.2 edge-count bounds
//	Lookup     — O(log n) routing over the stable network
//	Ablation   — what breaks without ring or connection edges
//	Async      — convergence under the asynchronous adversary
//
// The paper runs one experiment — random weakly connected graphs per
// size, each to its fixed point — and reads its figures off those runs.
// A Sweep (sweep.go) is that experiment: it simulates each (generator,
// size, rep) at most once and keeps what the figures read; Fig5, Fig6,
// Fig7, Messages, Budget, Fact21 and Convergence are projections of it.
package experiments

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/chord"
	"repro/internal/churn"
	"repro/internal/export"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topogen"
)

// Config controls an experiment sweep.
type Config struct {
	// Sizes is the list of real-node counts; the paper uses
	// {5,15,25,35,45,65,85,105}.
	Sizes []int
	// Reps is the number of random graphs per size; the paper uses 30.
	Reps int
	// Seed makes the whole sweep reproducible.
	Seed int64
	// Workers is passed to the protocol engine (0 = all cores).
	Workers int
}

// Default returns the paper's experimental setup.
func Default() Config {
	return Config{Sizes: []int{5, 15, 25, 35, 45, 65, 85, 105}, Reps: 30, Seed: 1}
}

// Quick returns a reduced setup for tests.
func Quick() Config {
	return Config{Sizes: []int{5, 15, 25}, Reps: 3, Seed: 1}
}

// Result bundles a regenerated figure: the data table, optional ASCII
// plot series, and shape fits named per measured column.
type Result struct {
	Name   string
	Table  *export.Table
	Series []export.Series
	Fits   map[string]stats.Fit
	Notes  []string
}

// WriteText renders the result as rechord-figures prints it: a blank
// line, the table, the ASCII plot of the series if asked for, the fits
// by name, the notes.
func (r *Result) WriteText(w io.Writer, plot bool) error {
	fmt.Fprintln(w)
	if err := r.Table.WriteText(w); err != nil {
		return err
	}
	if plot && len(r.Series) > 0 {
		fmt.Fprintln(w)
		if err := export.Plot(w, r.Name, 64, 14, r.Series...); err != nil {
			fmt.Fprintln(w, err)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(r.Fits)) {
		f := r.Fits[k]
		fmt.Fprintf(w, "fit: %-22s ~ %8.3f * %-9s (R2 %.3f)\n", k, f.C, f.Shape.Name, f.R2)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

// Runner is one experiment under the name rechord-figures knows it by.
type Runner struct {
	Name string
	Run  func(*Sweep) (*Result, error)
}

// Runners lists every experiment in the order a full run executes them.
var Runners = []Runner{
	{"fig5", (*Sweep).Fig5}, {"fig6", (*Sweep).Fig6}, {"fig7", (*Sweep).Fig7},
	{"convergence", (*Sweep).Convergence},
	{"join", func(s *Sweep) (*Result, error) {
		return s.recovery(churn.Join, "Theorem 4.1: recovery rounds after an isolated join (O(log^2 n))")
	}},
	{"leave", func(s *Sweep) (*Result, error) {
		return s.recovery(churn.Leave, "Theorem 4.2: recovery rounds after an isolated leave (O(log n))")
	}},
	{"fail", func(s *Sweep) (*Result, error) {
		return s.recovery(churn.Fail, "Theorem 4.2: recovery rounds after a crash failure (O(log n))")
	}},
	{"fact21", (*Sweep).Fact21}, {"chordfail", (*Sweep).ChordFail}, {"budget", (*Sweep).Budget},
	{"lookup", (*Sweep).Lookup}, {"messages", (*Sweep).Messages}, {"healing", (*Sweep).Healing},
	{"ablation", (*Sweep).Ablation}, {"async", (*Sweep).Async},
}

func (c Config) rng(size, rep int) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed + int64(size)*1_000_003 + int64(rep)*7919))
}

// build draws rep's random peer set of n and hands it to gen: the
// initial state of every experiment that starts from an unstable
// network. The returned rng continues the stream the build consumed.
func (c Config) build(n, rep int, gen topogen.Generator, rc rechord.Config) (*rand.Rand, []ident.ID, *rechord.Network) {
	rng := c.rng(n, rep)
	ids := topogen.RandomIDs(n, rng)
	rc.Workers = c.Workers
	return rng, ids, gen.Build(ids, rng, rc)
}

// Fig5 regenerates Figure 5: mean normal edges, connection edges and
// virtual nodes at the stabilization state, per real-node count.
func (s *Sweep) Fig5() (*Result, error) {
	return s.perSize("fig5", "Figure 5: edges and nodes at stabilization (means over reps)", []column{
		{name: "normal_edges", fit: "normal_edges", series: "normal edges", marker: 'n',
			of: func(r *record) (float64, bool) { return float64(r.final.NormalEdges()), true }},
		{name: "connection_edges", fit: "connection_edges", series: "connection edges", marker: 'c',
			of: func(r *record) (float64, bool) { return float64(r.final.ConnectionEdges), true }},
		{name: "virtual_nodes", fit: "virtual_nodes", series: "virtual nodes", marker: 'v',
			of: func(r *record) (float64, bool) { return float64(r.final.VirtualNodes), true }},
	}, []string{"paper: normal edges slightly superlinear, connection edges ~ c*n*log^2(n) growing fastest, virtual nodes ~ n log n"}, nil)
}

// rounds is the rounds-to-stable column of Fig6 and Convergence.
func rounds(r *record) (float64, bool) { return float64(r.Rounds), true }

// Fig6 regenerates Figure 6: rounds to the stable state and to the
// "almost stable" state (all desired edges present).
func (s *Sweep) Fig6() (*Result, error) {
	return s.perSize("fig6", "Figure 6: rounds to stable and almost-stable state (means over reps)", []column{
		{name: "rounds_stable", fit: "rounds_stable", series: "rounds to stable", marker: 's', of: rounds,
			growth: "measured growth exponent of rounds_stable: %.2f (sublinear if < 1)"},
		{name: "rounds_almost_stable", fit: "rounds_almost_stable", series: "rounds to almost stable", marker: 'a',
			of: func(r *record) (float64, bool) { return float64(r.AlmostStableRound), r.AlmostStableRound >= 0 }},
	}, []string{"paper: steps grow sublinearly (at most linearly), well below the O(n log n) bound"}, nil)
}

// Fig7 regenerates Figure 7: total edges against total nodes in the
// final graph, one point per run.
func (s *Sweep) Fig7() (*Result, error) {
	tab := export.NewTable("Figure 7: total edges vs total nodes in the final graph",
		"total_nodes", "total_edges")
	var xs, ys []float64
	for _, n := range s.cfg.Sizes {
		for rep := 0; rep < s.cfg.Reps; rep++ {
			rec, err := s.run(topogen.Random(), n, rep)
			if err != nil {
				return nil, err
			}
			tab.AddRow(rec.final.TotalNodes(), rec.final.TotalEdges())
			xs = append(xs, float64(rec.final.TotalNodes()))
			ys = append(ys, float64(rec.final.TotalEdges()))
		}
	}
	fits := map[string]stats.Fit{}
	if f, err := stats.BestFit(xs, ys); err == nil {
		fits["total_edges"] = f
	}
	return &Result{
		Name:   "fig7",
		Table:  tab,
		Series: []export.Series{{Name: "total edges", X: xs, Y: ys}},
		Fits:   fits,
		Notes:  []string{"paper: total edges grow proportionally to total nodes (Section 2.2 budget)"},
	}, nil
}

// Convergence exercises Theorem 1.1: rounds to stabilize from every
// adversarial topology generator, with growth-shape fits.
func (s *Sweep) Convergence() (*Result, error) {
	var cols []column
	for _, g := range topogen.All() {
		cols = append(cols, column{name: g.Name, gen: g, of: rounds, fit: g.Name, growth: g.Name + ": growth exponent %.2f"})
	}
	return s.perSize("convergence", "Theorem 1.1: rounds to stable state per initial topology (means over reps)",
		cols, []string{"paper bound: O(n log n) from any weakly connected state"}, nil)
}

// Messages measures the communication cost of stabilization: total
// messages until the fixed point per network size (the paper bounds
// work, not messages, but the edge budgets of Section 2.2 imply the
// per-round message load; this quantifies it).
func (s *Sweep) Messages() (*Result, error) {
	return s.perSize("messages", "Communication cost: messages until stabilization (means over reps)", []column{
		{name: "total_messages", fit: "total_messages", series: "total messages",
			of: func(r *record) (float64, bool) { return float64(r.TotalMessages), true }},
		{name: "messages_per_round",
			of: func(r *record) (float64, bool) { return float64(r.TotalMessages) / float64(r.Rounds), r.Rounds > 0 }},
	}, nil, nil)
}

// recovery exercises Theorem 4.1 (join) and Theorem 4.2 (graceful leave,
// crash failure): rounds to re-stabilize after one such event in a
// stable network, per network size.
func (s *Sweep) recovery(kind churn.Kind, title string) (*Result, error) {
	return s.perSize(string(kind), title, []column{
		{name: "recovery_rounds_mean", fit: "recovery_rounds", series: "recovery rounds"},
		{name: "recovery_rounds_max", agg: func(rs []float64) float64 { return stats.Summarize(rs).Max }},
	}, nil, func(n int) ([][]float64, error) {
		var rs []float64
		for rep := 0; rep < s.cfg.Reps; rep++ {
			rng := s.cfg.rng(n, rep)
			nw, ids, err := churn.StableNetwork(context.Background(), n, rng, rechord.Config{Workers: s.cfg.Workers})
			if err != nil {
				return nil, err
			}
			ev := churn.Event{Kind: kind}
			if kind == churn.Join {
				ev.ID = ident.ID(rng.Uint64() | 1)
				ev.Contact = ids[rng.Intn(len(ids))]
			} else {
				ev.ID = ids[rng.Intn(len(ids))]
			}
			rec, err := churn.Apply(context.Background(), nw, ev, 0)
			if err != nil {
				return nil, err
			}
			if !rec.Stable {
				return nil, fmt.Errorf("experiments: %s at n=%d rep=%d did not re-stabilize", kind, n, rep)
			}
			if err := churn.VerifyStable(nw); err != nil {
				return nil, fmt.Errorf("experiments: %s at n=%d rep=%d: %w", kind, n, rep, err)
			}
			rs = append(rs, float64(rec.Rounds))
		}
		return [][]float64{rs, rs}, nil
	})
}

// Fact21 verifies Fact 2.1 (checkChord has the statement) on one
// converged network per size.
func (s *Sweep) Fact21() (*Result, error) {
	tab := export.NewTable("Fact 2.1: Chord subgraph of stable Re-Chord",
		"real_nodes", "chord_edges", "direct_in_rechord", "wrap_edges", "wrap_reachable", "max_wrap_hops")
	for _, n := range s.cfg.Sizes {
		rec, err := s.run(topogen.Random(), n, 0)
		if err != nil {
			return nil, err
		}
		c := rec.chord
		if c.err != nil {
			return nil, c.err
		}
		tab.AddRow(n, c.edges, c.direct, c.wraps, true, c.maxHops)
	}
	return &Result{Name: "fact21", Table: tab,
		Notes: []string{
			"all non-wrapping Chord edges (successors and fingers) are directly present in the stable Re-Chord projection",
			"wrapping edges are emulated by a short relay over the ring edges (max_wrap_hops)",
		}}, nil
}

// ChordFail reproduces the motivation of Section 1: from a weakly
// connected loopy state (one successor cycle winding several times
// around the identifier circle), classic Chord's stabilize/notify/
// fix-fingers protocol is at a fixed point and never recovers, while
// Re-Chord converges to the correct topology from the same peer set
// and the same initial connectivity.
func (s *Sweep) ChordFail() (*Result, error) {
	tab := export.NewTable("Chord vs Re-Chord from a loopy state",
		"real_nodes", "stride", "chord_rounds", "chord_recovered", "rechord_rounds", "rechord_recovered")
	for _, n := range s.cfg.Sizes {
		// The same adversarial shape for both: topogen.Loopy seeds each
		// peer with an unmarked edge to its loopy "successor" only.
		_, ids, nw := s.cfg.build(n, 0, topogen.Loopy(), rechord.Config{})
		cs := chord.Loopy(ids)
		// The loopy state is a fixed point of Chord's maintenance, so a
		// bounded number of rounds demonstrates non-recovery; the unit
		// tests additionally assert no successor pointer ever changes.
		chordRounds := min(4*n, 60)
		for i := 0; i < chordRounds; i++ {
			cs.Stabilize()
		}
		chordOK := cs.IsCorrectRing()

		idl := rechord.ComputeIdeal(ids)
		res, err := sim.RunToStable(context.Background(), nw, sim.Options{Ideal: idl})
		if err != nil {
			return nil, err
		}
		reOK := idl.Matches(nw) == nil
		tab.AddRow(n, chord.LoopyStride(n), chordRounds, chordOK, res.Rounds, reOK)
		if chordOK {
			return nil, fmt.Errorf("experiments: Chord unexpectedly recovered at n=%d", n)
		}
		if !reOK {
			return nil, fmt.Errorf("experiments: Re-Chord failed to recover at n=%d", n)
		}
	}
	return &Result{Name: "chordfail", Table: tab,
		Notes: []string{"Chord's maintenance is stuck in the loopy state forever; Re-Chord reaches the correct ring"}}, nil
}

// Budget checks the edge-count bounds of Section 2.2 on converged
// networks: |E_u ∪ E_r| <= 4 |E_Chord| with Chord edges counted as
// slots (successor plus one finger slot per virtual level, the
// counting under which each Re-Chord node contributes at most 4
// outgoing unmarked edges), and connection edges near c*n*log^2 n.
func (s *Sweep) Budget() (*Result, error) {
	tab := export.NewTable("Section 2.2 edge budgets at stabilization",
		"real_nodes", "eu_plus_er", "4x_chord_slots", "within_bound", "connection_edges", "n_log2_n")
	for _, n := range s.cfg.Sizes {
		rec, err := s.run(topogen.Random(), n, 0)
		if err != nil {
			return nil, err
		}
		eur, slots := rec.final.NormalEdges(), rec.chord.slots
		tab.AddRow(n, eur, 4*slots, eur <= 4*slots, rec.final.ConnectionEdges, float64(n)*log2f(n)*log2f(n))
		if eur > 4*slots {
			return nil, fmt.Errorf("experiments: edge budget violated at n=%d: %d > 4*%d", n, eur, slots)
		}
	}
	return &Result{Name: "budget", Table: tab}, nil
}

// log2f is floor(log2 n) for n >= 1.
func log2f(n int) float64 { return float64(bits.Len(uint(n)) - 1) }

// Lookup measures routing hops over stable networks per size,
// reproducing the O(log n) Chord-emulation claim.
func (s *Sweep) Lookup() (*Result, error) {
	return s.perSize("lookup", "Chord emulation: lookup path length over stable Re-Chord", []column{
		{name: "mean_hops", fit: "mean_hops", series: "mean hops"},
		{name: "p99_hops", agg: func(hops []float64) float64 { return stats.Percentile(hops, 99) }},
		{name: "log2_n"},
	}, nil, func(n int) ([][]float64, error) {
		rng := s.cfg.rng(n, 0)
		nw, ids, err := churn.StableNetwork(context.Background(), n, rng, rechord.Config{Workers: s.cfg.Workers})
		if err != nil {
			return nil, err
		}
		var hops []float64
		for i := 0; i < 20*n; i++ {
			key := ident.ID(rng.Uint64())
			want, _ := routing.Owner(nw, key)
			got, path, err := routing.Route(nw, ids[rng.Intn(len(ids))], key)
			if err != nil {
				return nil, err
			}
			if got != want {
				return nil, fmt.Errorf("experiments: lookup at n=%d found %s, want %s", n, got, want)
			}
			hops = append(hops, float64(len(path)-1))
		}
		return [][]float64{hops, hops, {log2f(n)}}, nil
	})
}

// Ablation disables rule 6 (connection edges) and rule 5 (ring edges)
// in turn, showing both are necessary: without connection edges the
// virtual-node graph can stay disconnected; without ring edges no ring
// forms (the state still linearizes into a sorted list).
func (s *Sweep) Ablation() (*Result, error) {
	tab := export.NewTable("Ablation: disabling rules 5/6 (per size, one run each)",
		"real_nodes", "variant", "fixed_point", "unmarked_connected", "matches_ideal")
	for _, n := range s.cfg.Sizes {
		for _, variant := range []struct {
			name string
			cfg  rechord.Config
		}{
			{"full", rechord.Config{}},
			{"no-ring", rechord.Config{DisableRing: true}},
			{"no-connection", rechord.Config{DisableConnection: true}},
		} {
			_, ids, nw := s.cfg.build(n, 0, topogen.Random(), variant.cfg)
			res := sim.Run(context.Background(), nw, sim.Options{MaxRounds: sim.DefaultMaxRounds(n)})
			tab.AddRow(n, variant.name, res.Stable, nw.Graph().UnmarkedWeaklyConnected(), rechord.ComputeIdeal(ids).Matches(nw) == nil)
		}
	}
	return &Result{Name: "ablation", Table: tab,
		Notes: []string{
			"no-ring: converges to a sorted list, never the ring topology (matches_ideal=false)",
			"no-connection: sibling clusters can stay disconnected; the unmarked graph may not become connected",
		}}, nil
}

// Healing measures application-level routability while the network
// self-stabilizes (an extra experiment connecting Fig. 6's "almost
// stable" state to behaviour: lookups become universally correct at or
// before almost-stability, well before the full fixed point). One
// network per size; per round, a fixed sample of lookups is attempted
// and checked against the consistent-hashing oracle.
func (s *Sweep) Healing() (*Result, error) {
	tab := export.NewTable("Routability while healing (random init; lookups correct per round)",
		"real_nodes", "round_50pct", "round_100pct", "almost_stable", "stable")
	for _, n := range s.cfg.Sizes {
		rng, ids, nw := s.cfg.build(n, 0, topogen.Random(), rechord.Config{})
		idl := rechord.ComputeIdeal(ids)

		const samples = 40
		keys := make([]ident.ID, samples)
		froms := make([]ident.ID, samples)
		for i := range keys {
			keys[i] = ident.ID(rng.Uint64())
			froms[i] = ids[rng.Intn(len(ids))]
		}
		measure := func() float64 {
			okCount := 0
			for i := range keys {
				want := ident.Successor(nw.Peers(), keys[i])
				got, _, err := routing.Route(nw, froms[i], keys[i])
				if err == nil && got == want {
					okCount++
				}
			}
			return float64(okCount) / samples
		}

		round50, round100, almostAt, stableAt := -1, -1, -1, -1
		for r := 0; r < sim.DefaultMaxRounds(n); r++ {
			nw.Step()
			frac := measure()
			if round50 < 0 && frac >= 0.5 {
				round50 = nw.Round()
			}
			if round100 < 0 && frac == 1.0 {
				round100 = nw.Round()
			}
			if almostAt < 0 && idl.AlmostStable(nw) {
				almostAt = nw.Round()
			}
			// An empty frontier is the global fixed point.
			if nw.Quiescent() {
				stableAt = nw.LastChange()
				break
			}
		}
		if stableAt < 0 {
			return nil, fmt.Errorf("experiments: healing at n=%d did not stabilize", n)
		}
		if round100 < 0 {
			return nil, fmt.Errorf("experiments: healing at n=%d never reached full routability", n)
		}
		tab.AddRow(n, round50, round100, almostAt, stableAt)
	}
	return &Result{Name: "healing", Table: tab,
		Notes: []string{"full routability arrives around the almost-stable state, long before the fixed point"}}, nil
}
