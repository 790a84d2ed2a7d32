package rechord_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
	"repro/internal/sim"
)

// fuzzBytes reads a scenario off fuzz input; an exhausted input reads as
// zeros, so every byte string decodes.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzID places an identifier by two input bytes; the tag in the low
// bits keeps the identifiers of one scenario distinct.
func (b *fuzzBytes) fuzzID(tag int) ident.ID {
	return ident.ID(uint64(b.next())<<56 | uint64(b.next())<<48 | uint64(tag+1))
}

// FuzzEngineVsReference is the differential fuzz target of the engine:
// the input decodes into an initial state the way the paper's adversary
// may set it — up to 24 peers anywhere on the ring, up to 63 seeded edges
// of any kind between any levels, some pointing at identifiers that are
// not in the network — and a script of up to 8 join/leave/fail/rejoin
// events. One more byte picks the scheduler. Even (an exhausted input
// included): the product engine at Workers 1 and 4 runs against the
// reference engine for up to 96 rounds and must agree with it after
// every one. Odd: the asynchronous adversary runs the script (see
// runFuzzAsync). A failure prints the input; the go tool also files it
// under testdata/fuzz.
func FuzzEngineVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		ids := make([]ident.ID, 2+in.next()%23)
		for i := range ids {
			ids[i] = in.fuzzID(i)
		}
		// Edge endpoints index the peers plus two identifiers nobody holds.
		ends := append(append([]ident.ID(nil), ids...), in.fuzzID(len(ids)), in.fuzzID(len(ids)+1))
		type edge struct {
			from, to ref.Ref
			kind     graph.Kind
		}
		edges := make([]edge, in.next()%64)
		for i := range edges {
			edges[i] = edge{
				from: ref.Virtual(ids[in.next()%len(ids)], in.next()%16),
				to:   ref.Virtual(ends[in.next()%len(ends)], in.next()%16),
				kind: graph.Kind(in.next() % 3),
			}
		}
		events := make([]lockstepEvent, in.next()%9)
		last := 0
		for i := range events {
			events[i] = lockstepEvent{round: in.next() % 96, kind: in.next() % 4, victim: in.next(), contact: in.next(), fresh: in.fuzzID(len(ends) + i)}
			last = max(last, events[i].round)
		}

		build := func(workers int) *rechord.Network {
			nw := rechord.NewNetwork(rechord.Config{Workers: workers})
			for _, id := range ids {
				nw.AddPeer(id)
			}
			for _, e := range edges {
				nw.SeedEdge(e.from, e.to, e.kind)
			}
			return nw
		}
		if mode := in.next(); mode%2 == 1 {
			// Activation probability, a uniform delay bound of 1..3 and the
			// runner's rng seed all come from the input.
			probs := [...]float64{1, 0.5, 0.25}
			a := rechord.NewAsyncRunner(build(1), rechord.AsyncConfig{
				ActivationProb: probs[mode/2%3],
				Delay:          rechord.UniformDelay{Max: 1 + mode/6%3},
			}, rand.New(rand.NewSource(int64(in.next()<<8|in.next()))))
			runFuzzAsync(t, a, events, last, data)
			return
		}
		nets := []*rechord.Network{build(1), build(4)}
		l := rechord.NewLockstep(nets...)
		script := lockstepScript{events: events}
		for r := 0; r < 96 && (r <= last || !nets[0].Quiescent()); r++ {
			err := script.apply(l, l.Ref.Peers, r)
			if err == nil {
				err = l.Step()
			}
			if err != nil {
				t.Fatalf("%v\ninput: %q", err, data)
			}
		}
		if err := l.Exports(); err != nil {
			t.Fatalf("%v\ninput: %q", err, data)
		}
	})
}

// runFuzzAsync is the asynchronous half of FuzzEngineVsReference. The
// synchronous reference cannot shadow a random schedule, so the oracle is
// the outcome Theorem 1.1 promises: the run must quiesce within the
// runner's default budget past the script's last event, every peer off
// the frontier must then be locally stable, and the fixed point must be
// the ideal topology unless a seed, a crash or a leave cut left the graph
// disconnected (leaveCutWatch). The last check is skipped where two
// peers' nodes share a position, which low-bit tags produce readily: the
// paper's hashed positions exclude it and the oracle does not describe it.
func runFuzzAsync(t *testing.T, a *rechord.AsyncRunner, events []lockstepEvent, last int, data []byte) {
	nw := a.Network()
	cw := leaveCutWatch{newCutWatch(nw)}
	script := lockstepScript{events: events}
	budget := sim.DefaultBudget(a)
	for s := 0; s <= last || !a.Quiescent(); s++ {
		if s > last+budget {
			t.Fatalf("not quiescent %d steps after the last event\ninput: %q", budget, data)
		}
		if err := script.apply(cw, nw.Peers, s); err != nil {
			t.Fatalf("step %d: %v\ninput: %q", s, err, data)
		}
		a.Step()
	}
	rechord.AssertCleanPeersStable(t, a)
	if err := cw.offOracle(); err != nil && !positionsCoincide(nw.Peers()) {
		t.Fatalf("fixed point outside the oracle's state: %v\ninput: %q", err, data)
	}
}

// leaveCutWatch is a cutWatch that also exempts a Leave disconnecting the
// graph at once. A graceful leaver introduces only what its edge sets
// hold; input still pending at it (its inbox, its buckets, one-shots in
// flight to it) is dropped by both engines and the reference model, and
// under random delays that input can be the only bridge. A disconnection
// in any later step is still the protocol's.
type leaveCutWatch struct{ *cutWatch }

func (c leaveCutWatch) Leave(id ident.ID) error { return c.watch(c.Network.Leave, id) }

// positionsCoincide reports whether two of the oracle's nodes over the
// sorted peers share an identifier.
func positionsCoincide(peers []ident.ID) bool {
	seen := make(map[ident.ID]bool)
	for i, u := range peers {
		m := ident.MaxLevel
		if succ := peers[(i+1)%len(peers)]; succ != u {
			m = ident.LevelForDist(ident.Dist(u, succ))
		}
		for l := 0; l <= m; l++ {
			p := ref.Virtual(u, l).ID()
			if seen[p] {
				return true
			}
			seen[p] = true
		}
	}
	return false
}
