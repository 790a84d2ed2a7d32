package rechord

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Tests for the inverted dependency index and the pre-round-image settle
// verdict: the incremental implementations must reproduce the full-scan
// wake sets and the clone-and-compare settle decisions, under
// convergence and churn, in both schedulers. Every round of these runs
// is compared with the reference engine (Lockstep) or, under the
// asynchronous scheduler, checked with AssertCleanPeersStable; the wake
// sets and the index contents are compared directly at the quiescent
// points.

// seedLine builds n random peers seeded as a weakly connected line, not
// yet stepped.
func seedLine(n int, seed int64, cfg Config) (*Network, []ident.ID) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]ident.ID, 0, n)
	seen := map[ident.ID]bool{}
	for len(ids) < n {
		id := ident.ID(rng.Uint64())
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	nw := NewNetwork(cfg)
	for _, id := range ids {
		nw.AddPeer(id)
	}
	for i := 1; i < len(ids); i++ {
		nw.SeedEdge(ref.Real(ids[i-1]), ref.Real(ids[i]), graph.Unmarked)
	}
	return nw, ids
}

// stableNetCfg is seedLine run to quiescence.
func stableNetCfg(t *testing.T, n int, seed int64, cfg Config) (*Network, []ident.ID) {
	t.Helper()
	nw, ids := seedLine(n, seed, cfg)
	for r := 0; r < 8000; r++ {
		nw.Step()
		if nw.Quiescent() {
			return nw, ids
		}
	}
	t.Fatalf("network of %d peers did not quiesce", n)
	return nil, nil
}

// settleLockstep steps the product network and the reference, compared
// (and the dependency index audited) after every round, until the
// network is quiescent.
func settleLockstep(t *testing.T, l *Lockstep) {
	t.Helper()
	for r := 0; r < 8000; r++ {
		if err := l.Step(); err != nil {
			t.Fatal(err)
		}
		for _, nw := range l.Nets {
			CheckDepIndex(t, nw, fmt.Sprintf("round %d", nw.Round()))
		}
		if l.Nets[0].Quiescent() {
			return
		}
	}
	t.Fatal("did not quiesce")
}

// holdsDependent is the per-peer body of the full-scan wake: whether any
// reference in the peer's state is covered by the change sets. The
// O(n) baseline the index is compared against.
func (n *RealNode) holdsDependent(owners map[ident.ID]bool, refs map[ref.Ref]bool) bool {
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		for _, r := range v.Nu.Slice() {
			if owners[r.Owner()] || refs[r] {
				return true
			}
		}
		for _, r := range v.Nr.Slice() {
			if owners[r.Owner()] || refs[r] {
				return true
			}
		}
		for _, r := range v.Nc.Slice() {
			if owners[r.Owner()] || refs[r] {
				return true
			}
		}
	}
	for _, m := range n.inbox {
		if owners[m.Add.Owner()] || refs[m.Add] {
			return true
		}
	}
	for _, b := range n.in {
		for _, r := range b.c.recs() {
			add := r.Add()
			if owners[add.Owner()] || refs[add] {
				return true
			}
		}
	}
	return false
}

// wakeSetScan returns the slots the full-peer scan would wake,
// appended to buf (unsorted).
func (nw *Network) wakeSetScan(owners map[ident.ID]bool, refs map[ref.Ref]bool, buf []uint32) []uint32 {
	for slot, n := range nw.pt.nodes {
		if n == nil || n.dirty {
			continue
		}
		if n.holdsDependent(owners, refs) {
			buf = append(buf, uint32(slot))
		}
	}
	return buf
}

// checkWakeSets compares what wakeDependents wakes on the (quiescent)
// network with the scan, for a batch of synthetic change sets: live
// owners, a departed owner, unknown owners, and exact virtual refs at
// several levels. The wakes are undone after each case.
func checkWakeSets(t *testing.T, nw *Network, ids []ident.ID, departed ident.ID, rng *rand.Rand) {
	t.Helper()
	cases := []struct {
		owners []ident.ID
		refs   []ref.Ref
	}{
		{owners: []ident.ID{ids[rng.Intn(len(ids))]}},
		{owners: []ident.ID{departed}},
		{owners: []ident.ID{ident.ID(rng.Uint64() | 1)}},
		{refs: []ref.Ref{ref.Real(ids[rng.Intn(len(ids))])}},
		{refs: []ref.Ref{ref.Virtual(ids[rng.Intn(len(ids))], 1+rng.Intn(4))}},
		{
			owners: []ident.ID{ids[rng.Intn(len(ids))], departed},
			refs: []ref.Ref{
				ref.Virtual(ids[rng.Intn(len(ids))], 2),
				ref.Real(ids[rng.Intn(len(ids))]),
			},
		},
	}
	for i, c := range cases {
		if !nw.Quiescent() {
			t.Fatalf("case %d: the wake sets are compared on a quiescent network", i)
		}
		scan := nw.wakeSetScan(setOf(c.owners), setOf(c.refs), nil)
		base := len(nw.frontier) // an asynchronous runner leaves stale entries behind
		nw.wakeDependents(c.owners, c.refs)
		idx := slices.Clone(nw.frontier[base:])
		for _, slot := range idx {
			nw.pt.nodes[slot].dirty = false
		}
		nw.frontier = nw.frontier[:base]
		slices.Sort(idx)
		slices.Sort(scan)
		if !slices.Equal(idx, scan) {
			t.Fatalf("case %d: indexed wake set %v != scan %v (owners=%v refs=%v)", i, idx, scan, c.owners, c.refs)
		}
	}
}

// setOf is the scan's form of a wake list.
func setOf[K comparable](l []K) map[K]bool {
	m := make(map[K]bool, len(l))
	for _, k := range l {
		m[k] = true
	}
	return m
}

// TestWakeIndexMatchesScan drives convergence and churn through both
// schedulers — every synchronous round compared with the reference, the
// asynchronous run replayed peer by peer once it is quiescent — and adds
// direct wake-set and index consistency checks at the quiescent points.
func TestWakeIndexMatchesScan(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		nw, ids := seedLine(48, 17, Config{Workers: 1})
		l := NewLockstep(nw)
		settleLockstep(t, l)
		rng := rand.New(rand.NewSource(5))
		departed := ids[7]
		joiner := ident.ID(rng.Uint64() | 1)
		if err := errors.Join(l.Fail(departed), l.Leave(ids[20]), l.Join(joiner, ids[3])); err != nil {
			t.Fatal(err)
		}
		settleLockstep(t, l)
		if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Fatalf("wrong state after churn: %v", err)
		}
		checkWakeSets(t, nw, nw.Peers(), departed, rng)
		// Rejoin under a departed identifier: the index must wake the
		// peers still holding stale references to it.
		if err := l.Join(departed, nw.Peers()[0]); err != nil {
			t.Fatal(err)
		}
		settleLockstep(t, l)
		if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Fatalf("wrong state after rejoin: %v", err)
		}
	})

	t.Run("async", func(t *testing.T) {
		nw, ids := stableNetCfg(t, 32, 41, Config{Workers: 1})
		rng := rand.New(rand.NewSource(43))
		a := NewAsyncRunner(nw, AsyncConfig{ActivationProb: 0.5, Delay: UniformDelay{Max: 3}}, rng)
		if err := nw.Fail(ids[9]); err != nil {
			t.Fatal(err)
		}
		joiner := ident.ID(rng.Uint64() | 1)
		if err := nw.Join(joiner, ids[2]); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 60000 && !a.Quiescent(); s++ {
			a.Step()
			AssertCleanPeersStable(t, a)
		}
		if !a.Quiescent() {
			t.Fatal("async run did not quiesce after churn")
		}
		if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Fatalf("wrong async state after churn: %v", err)
		}
		CheckDepIndex(t, nw, "async after churn")
		checkWakeSets(t, nw, nw.Peers(), ids[9], rng)
	})
}

// TestSettleHashMatchesClone proves the settle verdict (now an exact
// pre-round image, no longer a hash) agrees with clone-and-compare
// through two crashes: the reference clones the global state around
// every round, and Lockstep demands a fresh change epoch for every peer
// whose clone differs.
func TestSettleHashMatchesClone(t *testing.T) {
	t.Run("agrees-under-churn", func(t *testing.T) {
		nw, ids := seedLine(40, 53, Config{Workers: 1})
		l := NewLockstep(nw)
		settleLockstep(t, l)
		if err := errors.Join(l.Fail(ids[4]), l.Fail(ids[13])); err != nil {
			t.Fatal(err)
		}
		settleLockstep(t, l)
		if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Fatalf("wrong state after churn: %v", err)
		}
	})
}

// TestWakeUnknownNoOp pins Wake's contract for identifiers that do not
// resolve: never present, or departed.
func TestWakeUnknownNoOp(t *testing.T) {
	nw, ids := stableNet(t, 8, 77)
	never := ident.ID(0xdeadbeefcafe)
	nw.Wake(never)
	if !nw.Quiescent() {
		t.Fatal("waking an unknown identifier dirtied the network")
	}
	departed := ids[3]
	if err := nw.Fail(departed); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4000 && !nw.Quiescent(); r++ {
		nw.Step()
	}
	if !nw.Quiescent() {
		t.Fatal("did not re-quiesce after failure")
	}
	nw.Wake(departed)
	if !nw.Quiescent() {
		t.Fatal("waking a departed identifier dirtied the network")
	}
	if got := nw.FrontierSize(); got != 0 {
		t.Fatalf("FrontierSize = %d after no-op wakes, want 0", got)
	}
}
