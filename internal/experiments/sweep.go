package experiments

import (
	"context"
	"fmt"

	"repro/internal/export"
	"repro/internal/graph"
	"repro/internal/rechord"
	"repro/internal/ref"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topogen"
)

// record is what the figures read off one converged run: numbers, not
// the network (a settled peer holds about 13 KB, BENCH_mem.json, and
// the paper-scale sweep is 1,440 runs).
type record struct {
	sim.Result                  // rounds, almost-stable round, total messages
	final      sim.RoundMetrics // the fixed point's node and edge counts
	chord      *chordCheck      // rep 0 of the random generator only
}

// chordCheck is what Budget and Fact21 read off a converged network:
// the oracle's Chord edge counts and how E_ReChord carries them.
type chordCheck struct {
	slots, edges, direct, wraps, maxHops int
	err                                  error // Fact 2.1 violated
}

// Sweep is the paper's experiment for one Config: the runs are
// simulated as runners ask for them, each at most once.
type Sweep struct {
	cfg  Config
	recs map[runKey]*record // one per convergence run simulated so far
}

type runKey struct {
	gen    string
	n, rep int
}

// NewSweep returns a sweep that has simulated nothing yet.
func NewSweep(cfg Config) *Sweep { return &Sweep{cfg: cfg, recs: map[runKey]*record{}} }

// run returns the record of gen's rep-th network of n peers. The first
// request builds it, runs it to the fixed point and verifies that it
// converged to the oracle state.
func (s *Sweep) run(gen topogen.Generator, n, rep int) (*record, error) {
	key := runKey{gen.Name, n, rep}
	if rec, ok := s.recs[key]; ok {
		return rec, nil
	}
	_, ids, nw := s.cfg.build(n, rep, gen, rechord.Config{})
	idl := rechord.ComputeIdeal(ids)
	res, err := sim.RunToStable(context.Background(), nw, sim.Options{Ideal: idl})
	if err != nil {
		return nil, err
	}
	if err := idl.Matches(nw); err != nil {
		return nil, fmt.Errorf("experiments: n=%d rep=%d converged to wrong state: %w", n, rep, err)
	}
	rec := &record{Result: res, final: sim.Measure(nw)}
	if rep == 0 && gen.Name == topogen.Random().Name {
		rec.chord = checkChord(n, idl, nw)
	}
	s.recs[key] = rec
	return rec, nil
}

// checkChord measures Fact 2.1 on a converged network: every edge of
// the correct Chord topology appears in E_ReChord (unmarked and ring
// edges projected onto real nodes). Chord edges that wrap around the
// 1.0 boundary are a documented special case: the formal rules define
// the closest right real neighbor in the linear order, so a peer whose
// deepest virtual node does not itself wrap reaches its wrapped
// successor through the ring edges instead of a direct edge; for those
// edges the check verifies short-path reachability in E_ReChord and
// reports the maximum relay length.
func checkChord(n int, idl *rechord.Ideal, nw *rechord.Network) *chordCheck {
	cg, rg := idl.ChordGraph(), nw.ReChordGraph()
	c := &chordCheck{slots: idl.ChordEdgeSlots(), edges: cg.NumEdges(graph.Unmarked)}
	for _, e := range cg.Edges(graph.Unmarked) {
		if rg.HasEdge(e.From, e.To, graph.Unmarked) {
			c.direct++
			continue
		}
		if e.To.ID() > e.From.ID() {
			c.err = fmt.Errorf("experiments: Fact 2.1 violated at n=%d: non-wrap edge %s->%s missing", n, e.From, e.To)
			break
		}
		c.wraps++
		hops := bfsDistance(rg, e.From, e.To)
		if hops < 0 {
			c.err = fmt.Errorf("experiments: Fact 2.1 violated at n=%d: wrap edge %s->%s unreachable", n, e.From, e.To)
			break
		}
		c.maxHops = max(c.maxHops, hops)
	}
	return c
}

// bfsDistance returns the shortest directed path length from a to b in
// the projected graph, or -1.
func bfsDistance(g *graph.Graph, a, b ref.Ref) int {
	adj := map[ref.Ref][]ref.Ref{}
	for _, e := range g.AllEdges() {
		adj[e.From] = append(adj[e.From], e.To)
	}
	dist := map[ref.Ref]int{a: 0}
	for queue := []ref.Ref{a}; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		if cur == b {
			return dist[cur]
		}
		for _, nx := range adj[cur] {
			if _, seen := dist[nx]; !seen {
				dist[nx] = dist[cur] + 1
				queue = append(queue, nx)
			}
		}
	}
	return -1
}

// column declares one measured quantity of a per-size figure: a table
// column holding, per size, an aggregate of the samples the runs
// contributed, and what is derived from those aggregates.
type column struct {
	name string
	// A projection of the sweep names the generator whose runs it reads
	// (zero: the paper's random graphs) and the sample one run
	// contributes (ok false: none).
	gen topogen.Generator
	of  func(*record) (v float64, ok bool)

	agg    func([]float64) float64 // nil: the mean
	fit    string                  // key of the column's best fit in Result.Fits; "": no fit
	series string                  // name of the plotted series; "": not plotted
	marker byte
	growth string // format of the growth-exponent note; "": no note
}

// perSize is the loop the per-size figures share. sample returns one
// sample list per column for a size (nil: the columns are projections
// of the sweep); the row is the size and each column's aggregate, and
// the aggregates over the sizes feed the fits, the growth-exponent notes
// (after the given ones) and the plot series.
func (s *Sweep) perSize(name, title string, cols []column, notes []string, sample func(n int) ([][]float64, error)) (*Result, error) {
	heads := []string{"real_nodes"}
	for _, c := range cols {
		heads = append(heads, c.name)
	}
	res := &Result{Name: name, Table: export.NewTable(title, heads...), Fits: map[string]stats.Fit{}, Notes: notes}
	var xs []float64
	ys := make([][]float64, len(cols))
	if sample == nil {
		sample = func(n int) ([][]float64, error) { return s.project(cols, n) }
	}
	for _, n := range s.cfg.Sizes {
		samples, err := sample(n)
		if err != nil {
			return nil, err
		}
		row := []interface{}{n}
		for i, c := range cols {
			v := stats.Summarize(samples[i]).Mean
			if c.agg != nil {
				v = c.agg(samples[i])
			}
			row = append(row, v)
			ys[i] = append(ys[i], v)
		}
		res.Table.AddRow(row...)
		xs = append(xs, float64(n))
	}
	for i, c := range cols {
		if c.series != "" {
			res.Series = append(res.Series, export.Series{Name: c.series, X: xs, Y: ys[i], Marker: c.marker})
		}
		if c.fit != "" {
			if f, err := stats.BestFit(xs, ys[i]); err == nil {
				res.Fits[c.fit] = f
			}
		}
		if c.growth != "" {
			if p, err := stats.GrowthExponent(xs, ys[i]); err == nil {
				res.Notes = append(res.Notes, fmt.Sprintf(c.growth, p))
			}
		}
	}
	return res, nil
}

// project reads each column's samples for size n off the sweep's runs.
func (s *Sweep) project(cols []column, n int) ([][]float64, error) {
	samples := make([][]float64, len(cols))
	for i, c := range cols {
		if c.gen.Build == nil {
			c.gen = topogen.Random()
		}
		for rep := 0; rep < s.cfg.Reps; rep++ {
			rec, err := s.run(c.gen, n, rep)
			if err != nil {
				return nil, err
			}
			if v, ok := c.of(rec); ok {
				samples[i] = append(samples[i], v)
			}
		}
	}
	return samples, nil
}
