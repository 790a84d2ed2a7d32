package rechord_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
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
// events; the product engine at Workers 1 and 4 then runs against the
// reference engine for up to 96 rounds and must agree with it after
// every one. A failure prints the input; the go tool also files it under
// testdata/fuzz.
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

		var nets []*rechord.Network
		for _, workers := range []int{1, 4} {
			nw := rechord.NewNetwork(rechord.Config{Workers: workers})
			for _, id := range ids {
				nw.AddPeer(id)
			}
			for _, e := range edges {
				nw.SeedEdge(e.from, e.to, e.kind)
			}
			nets = append(nets, nw)
		}
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
