// Package sim runs Re-Chord networks to convergence and records the
// per-round metrics the paper's evaluation (Section 5) reports: the
// number of rounds to the stable and "almost stable" states, and the
// evolution of edge and node counts.
package sim

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/rechord"
)

// RoundMetrics captures the network state at the start of a round.
type RoundMetrics struct {
	Round           int
	RealNodes       int
	VirtualNodes    int // virtual nodes only (levels >= 1)
	UnmarkedEdges   int
	RingEdges       int
	ConnectionEdges int
	Messages        int // messages generated during this round
}

// NormalEdges returns the paper's "normal edges": every edge except
// the connection edges.
func (m RoundMetrics) NormalEdges() int { return m.UnmarkedEdges + m.RingEdges }

// TotalEdges returns all edges of all kinds.
func (m RoundMetrics) TotalEdges() int { return m.NormalEdges() + m.ConnectionEdges }

// TotalNodes returns real plus virtual nodes.
func (m RoundMetrics) TotalNodes() int { return m.RealNodes + m.VirtualNodes }

// Options configures a run.
type Options struct {
	// MaxRounds bounds the run; 0 means a generous default derived
	// from the network size (the paper's bound is O(n log n)).
	MaxRounds int
	// TrackSeries records RoundMetrics for every round.
	TrackSeries bool
	// Ideal, when set, is used to detect the "almost stable" state.
	Ideal *rechord.Ideal
}

// Result reports a run's outcome.
type Result struct {
	// Stable reports whether a global fixed point was reached within
	// MaxRounds.
	Stable bool
	// Canceled reports that the run stopped early because the context
	// was done; Stable is false in that case.
	Canceled bool
	// Rounds is the number of rounds until the fixed point (the round
	// after which the state stopped changing), or MaxRounds if not
	// stable.
	Rounds int
	// AlmostStableRound is the first round after which every desired
	// edge existed; -1 if never observed (or no Ideal given).
	AlmostStableRound int
	// TotalMessages counts all messages across the run.
	TotalMessages int
	// Series holds per-round metrics when requested.
	Series []RoundMetrics
}

// DefaultMaxRounds returns the run bound for n peers: comfortably
// above the paper's O(n log n) bound with a floor for small n.
func DefaultMaxRounds(n int) int {
	if n < 1 {
		n = 1
	}
	log := 1
	for v := n; v > 1; v >>= 1 {
		log++
	}
	r := 40*n*log + 200
	return r
}

// budgetHint is implemented by schedulers whose steps are worth less
// than one synchronous round (the asynchronous runner: activation
// probability and message delays stretch convergence by a constant
// factor), so default budgets scale instead of spuriously expiring.
type budgetHint interface {
	StepBudgetScale() float64
}

// DefaultBudget returns the step budget for running the scheduler to
// its fixed point: DefaultMaxRounds for the synchronous round engine,
// scaled by the scheduler's own hint for event-driven executions.
func DefaultBudget(s rechord.Scheduler) int {
	b := DefaultMaxRounds(s.Network().NumPeers())
	if h, ok := s.(budgetHint); ok {
		if f := h.StepBudgetScale(); f > 1 {
			b = int(float64(b) * f)
		}
	}
	return b
}

// Measure computes the current metrics of the network: the node and
// edge counts of the graph nw.Graph() would export, taken in place off
// the engine's state (rechord.Network.Census), so measuring a converged
// network costs a pass over it and no graph.
func Measure(nw *rechord.Network) RoundMetrics {
	c := nw.Census()
	return RoundMetrics{
		Round:           nw.Round(),
		RealNodes:       nw.NumPeers(),
		VirtualNodes:    c.Nodes - nw.NumPeers(),
		UnmarkedEdges:   c.Edges[graph.Unmarked],
		RingEdges:       c.Edges[graph.Ring],
		ConnectionEdges: c.Edges[graph.Connection],
	}
}

// Run executes scheduler steps until the global state reaches a fixed
// point, the step bound is hit, or the context is done. The scheduler
// decides what a step is: passing the network itself runs synchronous
// rounds, passing a rechord.AsyncRunner runs the asynchronous
// adversary — the measurement loop is identical. Cancellation is
// observed between steps: the network is always left at a barrier,
// consistent and steppable, so a canceled run can be resumed by
// calling Run again with the same scheduler. The result carries no
// topology snapshot: callers that report one call Measure on the
// network they hold.
//
// The fixed point is detected by quiescence: an empty frontier and no
// in-flight delivery means no peer's inputs changed since it last
// reached a local fixed point, which is exactly global stability — an
// O(1) check.
func Run(ctx context.Context, s rechord.Scheduler, opt Options) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	nw := s.Network()
	maxSteps := opt.MaxRounds
	if maxSteps <= 0 {
		maxSteps = DefaultBudget(s)
	}
	res := Result{AlmostStableRound: -1}
	start := s.Time() // steps are counted relative to this run
	for r := 0; r < maxSteps; r++ {
		if ctx.Err() != nil {
			res.Canceled = true
			res.Rounds = s.Time() - start
			return res
		}
		if opt.TrackSeries {
			m := Measure(nw)
			m.Round = s.Time()
			res.Series = append(res.Series, m)
		}
		stats := s.Step()
		res.TotalMessages += stats.MessagesSent
		if opt.TrackSeries {
			res.Series[len(res.Series)-1].Messages = stats.MessagesSent
		}
		if res.AlmostStableRound < 0 && opt.Ideal != nil && opt.Ideal.AlmostStable(nw) {
			res.AlmostStableRound = s.Time() - start
		}
		if s.Quiescent() {
			res.Stable = true
			// Rounds counts up to the last state change: the round after
			// which the global state stopped changing.
			res.Rounds = max(s.LastChange()-start, 0)
			return res
		}
	}
	res.Rounds = s.Time() - start
	return res
}

// RunToStable is Run with a hard failure when the network does not
// stabilize, for tests and experiments that require convergence. A
// canceled run returns the context's error.
func RunToStable(ctx context.Context, s rechord.Scheduler, opt Options) (Result, error) {
	res := Run(ctx, s, opt)
	if res.Canceled {
		return res, ctx.Err()
	}
	if !res.Stable {
		return res, fmt.Errorf("sim: network of %d peers did not stabilize within %d steps",
			s.Network().NumPeers(), s.Time())
	}
	return res, nil
}
