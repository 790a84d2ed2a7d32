package rechord_test

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/topogen"
)

// These tests are the in-memory half of the sim-vs-wire equivalence
// gate: they run the same network as one monolithic Network and as P
// Partitions exchanging effect payloads by hand (no codec, no
// transport), which isolates the partitioned-execution semantics from
// the wire layer built on top of them (internal/wire).

// memSink buffers one partition's outgoing effects for the test's
// exchange step, preserving emission order per kind (the order the
// wire protocol preserves too).
type memSink struct {
	buckets   []rechord.BucketUpdate
	oneShots  []rechord.OneShot
	publishes []rechord.PeerPublish
}

func (s *memSink) SendBucket(u rechord.BucketUpdate)  { s.buckets = append(s.buckets, u) }
func (s *memSink) SendOneShot(u rechord.OneShot)      { s.oneShots = append(s.oneShots, u) }
func (s *memSink) PublishState(p rechord.PeerPublish) { s.publishes = append(s.publishes, p) }
func (s *memSink) empty() bool {
	return len(s.buckets) == 0 && len(s.oneShots) == 0 && len(s.publishes) == 0
}
func (s *memSink) clear() { s.buckets, s.oneShots, s.publishes = nil, nil, nil }

// partedNetwork is a P-way partitioned replica set plus its sinks.
type partedNetwork struct {
	parts []*rechord.Partition
	sinks []*memSink
}

func buildParted(nprocs, n int, seed int64, gen topogen.Generator, cfg rechord.Config) ([]ident.ID, *partedNetwork) {
	pn := &partedNetwork{}
	var ids []ident.ID
	for k := 0; k < nprocs; k++ {
		rng := rand.New(rand.NewSource(seed))
		ids = topogen.RandomIDs(n, rng)
		nw := gen.Build(ids, rng, cfg)
		rank := uint64(k)
		hosted := func(id ident.ID) bool { return uint64(id)%uint64(nprocs) == rank }
		sink := &memSink{}
		pn.sinks = append(pn.sinks, sink)
		pn.parts = append(pn.parts, rechord.NewPartition(nw, hosted, sink))
	}
	return ids, pn
}

// exchange applies every partition's buffered effects at every
// partition (the Apply methods gate by hosting where needed, exactly
// as the wire node does with the broadcast bundle) and reports whether
// anything was exchanged.
func (pn *partedNetwork) exchange() bool {
	any := false
	for _, s := range pn.sinks {
		if !s.empty() {
			any = true
		}
		for _, p := range pn.parts {
			for _, u := range s.buckets {
				p.ApplyBucket(u)
			}
			for _, u := range s.oneShots {
				p.ApplyOneShot(u)
			}
			for _, u := range s.publishes {
				p.ApplyPublish(u)
			}
		}
	}
	for _, s := range pn.sinks {
		s.clear()
	}
	return any
}

func (pn *partedNetwork) fingerprint() uint64 {
	var fp uint64
	for _, p := range pn.parts {
		fp ^= p.Fingerprint()
	}
	return fp
}

func (pn *partedNetwork) quiescent() bool {
	for _, p := range pn.parts {
		if !p.Quiescent() {
			return false
		}
	}
	return true
}

// TestPartitionLockstepMatchesMonolith: with no churn, partitioned
// execution is round-for-round identical to the monolith — same
// fingerprint after every round and quiescence on the same round. On
// both sides every clean peer is replayed on a clone after every step.
func TestPartitionLockstepMatchesMonolith(t *testing.T) {
	for _, gen := range []topogen.Generator{
		topogen.Random(), topogen.Line(), topogen.Garbage(), topogen.Star(),
	} {
		t.Run(gen.Name, func(t *testing.T) {
			const (
				n      = 20
				nprocs = 3
				seed   = 1701
				maxR   = 4000
			)
			cfg := rechord.Config{Workers: 1}
			rng := rand.New(rand.NewSource(seed))
			ids := topogen.RandomIDs(n, rng)
			mono := gen.Build(ids, rng, cfg)
			_, pn := buildParted(nprocs, n, seed, gen, cfg)

			if got, want := pn.fingerprint(), mono.StateFingerprint(nil); got != want {
				t.Fatalf("initial fingerprint mismatch: parted %016x, monolith %016x", got, want)
			}
			for r := 1; ; r++ {
				if r > maxR {
					t.Fatalf("no convergence in %d rounds", maxR)
				}
				mono.Step()
				rechord.AssertCleanPeersStable(t, mono)
				for _, p := range pn.parts {
					p.Step()
					rechord.AssertCleanPeersStable(t, p) // hosted peers, before the exchange brings new input
				}
				exchanged := pn.exchange()
				if got, want := pn.fingerprint(), mono.StateFingerprint(nil); got != want {
					t.Fatalf("round %d: fingerprint mismatch: parted %016x, monolith %016x", r, got, want)
				}
				monoQ := mono.Quiescent()
				partQ := pn.quiescent() && !exchanged
				if monoQ != partQ {
					t.Fatalf("round %d: monolith quiescent=%v but partitions quiescent=%v", r, monoQ, partQ)
				}
				if monoQ {
					break
				}
			}
			if err := rechord.ComputeIdeal(mono.Peers()).Matches(mono); err != nil {
				t.Fatalf("monolith did not reach the ideal topology: %v", err)
			}
		})
	}
}

// partOp is one scripted membership change.
type partOp struct {
	round   int
	kind    int // 0 join, 1 leave, 2 fail
	id      ident.ID
	contact ident.ID
}

// TestPartitionChurnConvergesToMonolith: with joins, graceful leaves
// and abrupt failures in the schedule, partitioned delivery timing
// skews from the monolith by a round around each op (goodbyes and
// re-materialized flow cross the exchange), but both executions
// self-stabilize to the same unique topology — equal fingerprints and
// the exact oracle.
func TestPartitionChurnConvergesToMonolith(t *testing.T) {
	const (
		n      = 18
		nprocs = 4
		seed   = 424242
		maxR   = 6000
	)
	cfg := rechord.Config{Workers: 1}
	rng := rand.New(rand.NewSource(seed))
	ids := topogen.RandomIDs(n, rng)
	mono := topogen.Random().Build(ids, rng, cfg)
	_, pn := buildParted(nprocs, n, seed, topogen.Random(), cfg)

	joinA := ident.ID(0x5A5A_0000_0000_0001)
	joinB := ident.ID(0xA5A5_0000_0000_0002)
	ops := []partOp{
		{round: 3, kind: 0, id: joinA, contact: ids[0]},
		{round: 6, kind: 1, id: ids[3]},
		{round: 9, kind: 2, id: ids[7]},
		{round: 12, kind: 0, id: joinB, contact: joinA},
		{round: 15, kind: 1, id: ids[11]},
	}

	applyMono := func(op partOp) error {
		switch op.kind {
		case 0:
			return mono.Join(op.id, op.contact)
		case 1:
			return mono.Leave(op.id)
		default:
			return mono.Fail(op.id)
		}
	}
	applyPart := func(p *rechord.Partition, op partOp) error {
		switch op.kind {
		case 0:
			return p.Join(op.id, op.contact)
		case 1:
			return p.Leave(op.id)
		default:
			return p.Fail(op.id)
		}
	}

	// Monolith run.
	next := 0
	for r := 1; ; r++ {
		if r > maxR {
			t.Fatalf("monolith: no convergence in %d rounds", maxR)
		}
		for next < len(ops) && ops[next].round == r {
			if err := applyMono(ops[next]); err != nil {
				t.Fatalf("monolith op %d: %v", next, err)
			}
			next++
		}
		mono.Step()
		if next == len(ops) && mono.Quiescent() {
			break
		}
	}

	// Partitioned run of the same schedule.
	next = 0
	for r := 1; ; r++ {
		if r > maxR {
			t.Fatalf("partitions: no convergence in %d rounds", maxR)
		}
		opsAt := 0
		for next < len(ops) && ops[next].round == r {
			for _, p := range pn.parts {
				if err := applyPart(p, ops[next]); err != nil {
					t.Fatalf("partition op %d: %v", next, err)
				}
			}
			next++
			opsAt++
		}
		for _, p := range pn.parts {
			p.Step()
		}
		exchanged := pn.exchange()
		if next == len(ops) && opsAt == 0 && !exchanged && pn.quiescent() {
			break
		}
	}

	if got, want := pn.fingerprint(), mono.StateFingerprint(nil); got != want {
		t.Fatalf("converged fingerprints differ: parted %016x, monolith %016x", got, want)
	}
	if err := rechord.ComputeIdeal(mono.Peers()).Matches(mono); err != nil {
		t.Fatalf("monolith did not reach the ideal topology: %v", err)
	}
}
