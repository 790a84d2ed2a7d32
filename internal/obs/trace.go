package obs

import (
	"fmt"
	"strings"

	"repro/internal/ident"
)

// PathHops is the one hop definition every layer reports through: a
// lookup's hop count is the number of inter-peer forwards, i.e. the
// number of owner changes along the resolved path. A lookup answered
// by the home peer itself is 0 hops; a path of k peers is k-1 hops.
// The table lookup counts forwards directly and routing.Route
// returns the path; the agreement of both with this definition is
// pinned by TestHopAccountingUnified.
func PathHops(path []ident.ID) int {
	if len(path) <= 1 {
		return 0
	}
	return len(path) - 1
}

// LookupTrace is the per-lookup flight record: the hop-by-hop path a
// key resolution took, how many published tables it read, and the
// simulated per-hop delay under the asynchronous model. Tracing is
// opt-in and off the hot path: untraced lookups pass a nil trace and
// pay nothing.
type LookupTrace struct {
	From  ident.ID   `json:"from"`
	Key   ident.ID   `json:"key"`
	Owner ident.ID   `json:"owner"`
	Path  []ident.ID `json:"path"`
	// CacheHits counts the routing tables this lookup read from the
	// published view.
	CacheHits int `json:"cache_hits"`
	// DelaySteps is the simulated per-hop delay (in scheduler steps)
	// each forward would pay under the cluster's delay model; empty
	// under the synchronous model's implicit unit delay.
	DelaySteps []int  `json:"delay_steps,omitempty"`
	Err        string `json:"err,omitempty"`
}

// Hops returns the trace's hop count under the unified definition.
func (t *LookupTrace) Hops() int { return PathHops(t.Path) }

// TotalDelay sums the simulated per-hop delays.
func (t *LookupTrace) TotalDelay() int {
	total := 0
	for _, d := range t.DelaySteps {
		total += d
	}
	return total
}

// String renders the trace on one line for logs and demo output.
func (t *LookupTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "key %s: ", t.Key)
	if len(t.Path) == 0 {
		b.WriteString("(no path)")
	}
	for i, p := range t.Path {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s", p)
	}
	fmt.Fprintf(&b, " (%d hops, %d cached tables", t.Hops(), t.CacheHits)
	if len(t.DelaySteps) > 0 {
		fmt.Fprintf(&b, ", delay %d steps", t.TotalDelay())
	}
	if t.Err != "" {
		fmt.Fprintf(&b, ", err %q", t.Err)
	}
	b.WriteString(")")
	return b.String()
}
