package rechord_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/churn"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
	"repro/internal/topogen"
)

// These tests are the in-memory half of the sim-vs-wire equivalence
// gate: they run the same network as one monolithic Network and as P
// Partitions exchanging effect payloads by hand (no codec, no
// transport), which isolates the partitioned-execution semantics from
// the wire layer built on top of them (internal/wire).

// partedNetwork is a P-way partitioned replica set.
type partedNetwork struct {
	parts []*rechord.Partition
}

func buildParted(nprocs, n int, seed int64, gen topogen.Generator, cfg rechord.Config) ([]ident.ID, *partedNetwork) {
	pn := &partedNetwork{}
	var ids []ident.ID
	for k := 0; k < nprocs; k++ {
		rng := rand.New(rand.NewSource(seed))
		ids = topogen.RandomIDs(n, rng)
		nw := gen.Build(ids, rng, cfg)
		pn.parts = append(pn.parts, rechord.NewPartition(nw, hostedBy(k, nprocs)))
	}
	return ids, pn
}

// hostedBy is rank k's hosting predicate among nprocs: id mod nprocs.
func hostedBy(k, nprocs int) func(ident.ID) bool {
	return func(id ident.ID) bool { return uint64(id)%uint64(nprocs) == uint64(k) }
}

// exchangeEffects drains every partition's effects and applies each at every
// partition, in rank order — what the wire node does with the merged
// bundle — and returns them by rank.
func exchangeEffects(parts []*rechord.Partition) []rechord.Effects {
	out := make([]rechord.Effects, len(parts))
	for k, p := range parts {
		out[k] = p.Drain()
	}
	for k := range out {
		for _, p := range parts {
			p.Apply(&out[k])
		}
	}
	return out
}

// exchange reports whether anything was exchanged.
func (pn *partedNetwork) exchange() bool {
	for _, e := range exchangeEffects(pn.parts) {
		if e.Len() > 0 {
			return true
		}
	}
	return false
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
	ops := []churn.Event{
		{Round: 3, Kind: churn.Join, ID: joinA, Contact: ids[0]},
		{Round: 6, Kind: churn.Leave, ID: ids[3]},
		{Round: 9, Kind: churn.Fail, ID: ids[7]},
		{Round: 12, Kind: churn.Join, ID: joinB, Contact: joinA},
		{Round: 15, Kind: churn.Leave, ID: ids[11]},
	}

	// Monolith run.
	next := 0
	for r := 1; ; r++ {
		if r > maxR {
			t.Fatalf("monolith: no convergence in %d rounds", maxR)
		}
		for next < len(ops) && ops[next].Round == r {
			if err := ops[next].Apply(mono); err != nil {
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
		for next < len(ops) && ops[next].Round == r {
			for _, p := range pn.parts {
				if err := ops[next].Apply(p); err != nil {
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

// stableParted is a 4-way partitioned n=20 random network stepped and
// exchanged to quiescence, so every peer has standing output.
func stableParted(t *testing.T) ([]ident.ID, *partedNetwork) {
	t.Helper()
	ids, pn := buildParted(4, 20, 1701, topogen.Random(), rechord.Config{Workers: 1})
	for r := 0; ; r++ {
		if r > 4000 {
			t.Fatal("no convergence in 4000 rounds")
		}
		for _, p := range pn.parts {
			p.Step()
		}
		if !pn.exchange() && pn.quiescent() {
			return ids, pn
		}
	}
}

// TestApplyAtRecipientHostOnly: a bucket update is installed only at
// its recipient's host — applied where the recipient is a stub, it
// leaves the standing messages unchanged.
func TestApplyAtRecipientHostOnly(t *testing.T) {
	ids, pn := buildParted(2, 20, 1701, topogen.Random(), rechord.Config{Workers: 1})
	p := pn.parts[0]
	var stub, hosted ident.ID
	for _, id := range ids {
		if hostedBy(0, 2)(id) {
			hosted = id
		} else {
			stub = id
		}
	}
	for _, c := range []struct {
		to   ident.ID
		grow int
	}{{stub, 0}, {hosted, 1}} {
		from := ids[0]
		if from == c.to {
			from = ids[1]
		}
		before := p.Network().InFlight()
		p.Apply(&rechord.Effects{Buckets: []rechord.BucketUpdate{{From: from, To: c.to,
			Recs: []rechord.Record{rechord.PackRecord(rechord.Message{To: ref.Real(c.to), Kind: graph.Unmarked, Add: ref.Real(from)})}}}})
		if got := p.Network().InFlight() - before; got != c.grow {
			t.Errorf("bucket to %s (hosted %v): in-flight grew by %d, want %d", c.to, c.to == hosted, got, c.grow)
		}
	}
}

// TestPartitionFailSendsNothing: every process flushes a crashed peer's
// standing output to the recipients it hosts, so no process has
// anything to send for a crash, even where the crashed peer had remote
// recipients.
func TestPartitionFailSendsNothing(t *testing.T) {
	ids, pn := stableParted(t)
	victim := ids[5]
	host := int(uint64(victim) % 4)
	remote := 0
	for _, r := range pn.parts[host].Network().Recipients(victim) {
		if !hostedBy(host, 4)(r) {
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("victim has no remote recipients; pick another")
	}
	for _, p := range pn.parts {
		if err := p.Fail(victim); err != nil {
			t.Fatal(err)
		}
	}
	for k, p := range pn.parts {
		if e := p.Drain(); len(e.OneShots) > 0 {
			t.Errorf("rank %d sends %d one-shots for a crash", k, len(e.OneShots))
		}
	}
}

// TestPartitionLeaveSendsGoodbyes: the one-shots a graceful leave puts
// on the exchange are exactly the leaver's goodbyes to remote
// recipients, from the leaver's host only.
func TestPartitionLeaveSendsGoodbyes(t *testing.T) {
	ids, pn := stableParted(t)
	victim := ids[5]
	host := int(uint64(victim) % 4)
	want := map[ident.ID][]rechord.Message{} // per remote recipient, in order
	for _, m := range pn.parts[host].Network().Goodbyes(victim) {
		if to := m.To.Owner(); !hostedBy(host, 4)(to) {
			want[to] = append(want[to], m)
		}
	}
	if len(want) == 0 {
		t.Fatal("victim has no remote goodbyes; pick another")
	}
	for _, p := range pn.parts {
		if err := p.Leave(victim); err != nil {
			t.Fatal(err)
		}
	}
	got := map[ident.ID][]rechord.Message{}
	for k, p := range pn.parts {
		for _, u := range p.Drain().OneShots {
			if k != host {
				t.Errorf("rank %d, not the leaver's host, sends a one-shot to %s", k, u.To)
			}
			if got[u.To] != nil {
				t.Errorf("two one-shots to %s", u.To)
			}
			for _, m := range u.Msgs {
				if m.To.Owner() != u.To {
					t.Errorf("one-shot to %s carries a message to %s", u.To, m.To.Owner())
				}
			}
			got[u.To] = u.Msgs
		}
	}
	if !maps.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("one-shots after the leave:\n got %v\nwant %v", got, want)
	}
}

// TestPartitionRejoinMirrorsStandingFlow: an identifier that departs and
// rejoins in the same round is still addressed by the senders that held
// it, since none of them has run since the departure. AddPeer
// re-materializes their standing flow at the joiner, and Partition.Join
// mirrors the flow of the senders it hosts to the joiner's host: after
// one exchange the joiner holds exactly the buckets it held before it
// departed, the remote senders' included.
func TestPartitionRejoinMirrorsStandingFlow(t *testing.T) {
	ids, pn := stableParted(t)
	remote := 0
	var victim ident.ID
	var before map[ident.ID][]rechord.Message
	for _, id := range ids[1:] {
		host := int(uint64(id) % 4)
		before = pn.parts[host].Network().Standing(id)
		delete(before, id) // its own bucket departs with its incarnation
		remote = 0
		for from := range before {
			if !hostedBy(host, 4)(from) {
				remote++
			}
		}
		if remote > 0 {
			victim = id
			break
		}
	}
	if remote == 0 {
		t.Fatal("no peer has a standing bucket from a remote sender")
	}
	for _, p := range pn.parts {
		if err := p.Fail(victim); err != nil {
			t.Fatal(err)
		}
		if err := p.Join(victim, ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	mirrors := 0
	for _, e := range exchangeEffects(pn.parts) {
		for _, u := range e.Buckets {
			if u.To == victim {
				mirrors++
			}
		}
	}
	if mirrors != remote {
		t.Errorf("%d bucket updates to the rejoined peer, want one per remote sender (%d)", mirrors, remote)
	}
	got := pn.parts[uint64(victim)%4].Network().Standing(victim)
	if !maps.EqualFunc(got, before, slices.Equal) {
		t.Fatalf("standing buckets at the rejoined peer:\n got %v\nwant %v", got, before)
	}
}
