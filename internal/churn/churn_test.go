package churn

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/topogen"
)

func TestStableNetworkIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw, ids, err := StableNetwork(context.Background(), 20, rng, rechord.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumPeers() != 20 || len(ids) != 20 {
		t.Fatalf("got %d peers, want 20", nw.NumPeers())
	}
	if err := VerifyStable(nw); err != nil {
		t.Fatal(err)
	}
}

func TestJoinRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nw, ids, err := StableNetwork(context.Background(), 25, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	newID := ident.ID(rng.Uint64() | 1)
	rec, err := Apply(context.Background(), nw, Event{Kind: "join", ID: newID, Contact: ids[rng.Intn(len(ids))]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Stable {
		t.Fatal("network did not re-stabilize after join")
	}
	if err := VerifyStable(nw); err != nil {
		t.Fatalf("wrong state after join: %v", err)
	}
	t.Logf("join absorbed in %d rounds", rec.Rounds)
}

func TestJoinSmallerAndLargerContact(t *testing.T) {
	// Section 4.1 distinguishes joining via a smaller vs. a larger
	// peer; both must work.
	rng := rand.New(rand.NewSource(3))
	nw, ids, err := StableNetwork(context.Background(), 15, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]ident.ID(nil), ids...)
	ident.Sort(sorted)
	// New peer in the middle, contacting the smallest peer (contact <
	// joiner) — then another contacting the largest (contact > joiner).
	mid := sorted[len(sorted)/2] + (sorted[len(sorted)/2+1]-sorted[len(sorted)/2])/2
	for i, contact := range []ident.ID{sorted[0], sorted[len(sorted)-1]} {
		id := mid + ident.ID(i+1)
		rec, err := Apply(context.Background(), nw, Event{Kind: "join", ID: id, Contact: contact}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Stable {
			t.Fatalf("join %d did not re-stabilize", i)
		}
		if err := VerifyStable(nw); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
}

func TestLeaveRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nw, ids, err := StableNetwork(context.Background(), 25, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Apply(context.Background(), nw, Event{Kind: "leave", ID: ids[rng.Intn(len(ids))]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Stable {
		t.Fatal("network did not re-stabilize after leave")
	}
	if err := VerifyStable(nw); err != nil {
		t.Fatalf("wrong state after leave: %v", err)
	}
	t.Logf("leave absorbed in %d rounds", rec.Rounds)
}

func TestFailRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw, ids, err := StableNetwork(context.Background(), 25, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Apply(context.Background(), nw, Event{Kind: "fail", ID: ids[rng.Intn(len(ids))]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Stable {
		t.Fatal("network did not re-stabilize after failure")
	}
	if err := VerifyStable(nw); err != nil {
		t.Fatalf("wrong state after failure: %v", err)
	}
}

func TestFailExtremePeers(t *testing.T) {
	// Failing the global minimum or maximum peer breaks both ring
	// edges at once — the hardest single failure.
	for trial, pick := range []string{"min", "max"} {
		rng := rand.New(rand.NewSource(int64(60 + trial)))
		nw, ids, err := StableNetwork(context.Background(), 15, rng, rechord.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]ident.ID(nil), ids...)
		ident.Sort(sorted)
		victim := sorted[0]
		if pick == "max" {
			victim = sorted[len(sorted)-1]
		}
		rec, err := Apply(context.Background(), nw, Event{Kind: "fail", ID: victim}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Stable {
			t.Fatalf("network did not re-stabilize after failing %s peer", pick)
		}
		if err := VerifyStable(nw); err != nil {
			t.Fatalf("failing %s peer: %v", pick, err)
		}
	}
}

func TestRandomChurnSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nw, _, err := StableNetwork(context.Background(), 12, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	events := RandomEvents(nw, 10, rng)
	recs, err := RunSequence(context.Background(), nw, events, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(events) {
		t.Fatalf("got %d recoveries for %d events", len(recs), len(events))
	}
}

func TestApplyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw, ids, err := StableNetwork(context.Background(), 5, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(context.Background(), nw, Event{Kind: "bogus"}, 1); err == nil {
		t.Error("unknown event kind must error")
	}
	if _, err := Apply(context.Background(), nw, Event{Kind: "join", ID: ids[0], Contact: ids[1]}, 1); err == nil {
		t.Error("joining an existing id must error")
	}
	if _, err := Apply(context.Background(), nw, Event{Kind: "leave", ID: ident.ID(12345)}, 1); err == nil {
		t.Error("leaving an absent id must error")
	}
	if _, err := Apply(context.Background(), nw, Event{Kind: "fail", ID: ident.ID(12345)}, 1); err == nil {
		t.Error("failing an absent id must error")
	}
}

// TestEventApplyAcrossMemberships drives the single applier over both
// Membership implementations — a whole Network and a 2-way Partition
// pair over identical replicas — and requires the same error-ness and
// the same membership everywhere after every event.
func TestEventApplyAcrossMemberships(t *testing.T) {
	build := func() *rechord.Network {
		rng := rand.New(rand.NewSource(9))
		return topogen.Random().Build(topogen.RandomIDs(12, rng), rng, rechord.Config{Workers: 1})
	}
	mono := build()
	ids := mono.Peers()
	type target struct {
		name string
		m    Membership
		nw   *rechord.Network
	}
	targets := []target{{"network", mono, mono}}
	for k := uint64(0); k < 2; k++ {
		k, nw := k, build()
		hosted := func(id ident.ID) bool { return uint64(id)%2 == k }
		targets = append(targets, target{fmt.Sprintf("partition %d/2", k), rechord.NewPartition(nw, hosted), nw})
	}

	fresh, absent := ident.ID(0x5A5A_0000_0000_0001), ident.ID(0x7777_0000_0000_0003)
	for _, tc := range []struct {
		name    string
		ev      Event
		wantErr bool
	}{
		{"join", Event{Kind: Join, ID: fresh, Contact: ids[0]}, false},
		{"duplicate join", Event{Kind: Join, ID: fresh, Contact: ids[0]}, true},
		{"join via unknown contact", Event{Kind: Join, ID: absent, Contact: absent + 2}, true},
		{"leave", Event{Kind: Leave, ID: ids[1]}, false},
		{"leave of a departed peer", Event{Kind: Leave, ID: ids[1]}, true},
		{"fail", Event{Kind: Fail, ID: ids[2]}, false},
		{"fail of an unknown peer", Event{Kind: Fail, ID: absent}, true},
		{"leave of the joiner", Event{Kind: Leave, ID: fresh}, false},
		{"unknown kind", Event{Kind: "bogus", ID: ids[3]}, true},
		{"zero kind", Event{ID: ids[3]}, true},
	} {
		for _, tg := range targets {
			if err := tc.ev.Apply(tg.m); (err != nil) != tc.wantErr {
				t.Errorf("%s on %s: err = %v, want error %v", tc.name, tg.name, err, tc.wantErr)
			}
			if got, want := tg.nw.Peers(), mono.Peers(); !slices.Equal(got, want) {
				t.Fatalf("%s: %s has membership %v, the network %v", tc.name, tg.name, got, want)
			}
		}
	}
	if n := mono.NumPeers(); n != len(ids)-2 {
		t.Fatalf("%d peers after one join and three departures from %d", n, len(ids))
	}
}

func TestConcurrentJoins(t *testing.T) {
	// Two peers joining in the same round — beyond the paper's
	// "isolated join" analysis but the protocol must still converge.
	rng := rand.New(rand.NewSource(8))
	nw, ids, err := StableNetwork(context.Background(), 10, rng, rechord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := ident.ID(rng.Uint64()|1), ident.ID(rng.Uint64()|1)
	if err := nw.Join(a, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := nw.Join(b, ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	rec, err := Apply(context.Background(), nw, Event{Kind: "join", ID: ident.ID(rng.Uint64() | 1), Contact: a}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Stable {
		t.Fatal("no fixed point after concurrent joins")
	}
	if err := VerifyStable(nw); err != nil {
		t.Fatalf("wrong state after concurrent joins: %v", err)
	}
}
