// Package churn drives join/leave/failure workloads against stable
// Re-Chord networks and measures recovery, reproducing the claims of
// Section 4: isolated joins re-stabilize in O(log^2 n) rounds
// (Theorem 4.1) and leaves/failures in O(log n) rounds (Theorem 4.2).
package churn

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/sim"
	"repro/internal/topogen"
)

// Kind names one of the three membership events Section 4 defines. Its
// string is the spelling scripts, reports and logs use.
type Kind string

const (
	Join  Kind = "join"  // through one contact (Theorem 4.1)
	Leave Kind = "leave" // graceful, with goodbyes (Theorem 4.2)
	Fail  Kind = "fail"  // crash, no goodbyes (Theorem 4.2)
)

// Event is one membership change: the repo's only definition of one.
// Scripts schedule it (Round), generators and drivers leave Round 0.
type Event struct {
	// Round is the scheduled round or step: the event applies before
	// that round runs. Unscheduled events leave it 0.
	Round int
	Kind  Kind
	// ID is the peer joining or departing.
	ID ident.ID
	// Contact is the peer a joiner connects to (unused otherwise).
	Contact ident.ID
}

// Membership is what an event is applied to: a whole network
// (*rechord.Network) or one process's share of a replicated one
// (*rechord.Partition).
type Membership interface {
	Join(id, contact ident.ID) error
	Leave(id ident.ID) error
	Fail(id ident.ID) error
}

// Apply executes the membership change, and nothing else: no stepping,
// no repair. It is the only place a kind is dispatched onto
// Join/Leave/Fail.
func (ev Event) Apply(m Membership) error {
	switch ev.Kind {
	case Join:
		return m.Join(ev.ID, ev.Contact)
	case Leave:
		return m.Leave(ev.ID)
	case Fail:
		return m.Fail(ev.ID)
	default:
		return fmt.Errorf("churn: unknown event kind %q", ev.Kind)
	}
}

// Recovery reports how a single event was absorbed.
type Recovery struct {
	Rounds int // rounds until the network reached the new stable state
	Stable bool
}

// StableNetwork builds a network of n random peers already in the
// stable state (seeded from the oracle and verified by one fixed-point
// check).
func StableNetwork(ctx context.Context, n int, rng *rand.Rand, cfg rechord.Config) (*rechord.Network, []ident.ID, error) {
	ids := topogen.RandomIDs(n, rng)
	nw := topogen.PreStabilized().Build(ids, rng, cfg)
	// Let the seeded state settle into the true fixed point (the seed
	// lacks the steady-state message flow).
	res, err := sim.RunToStable(ctx, nw, sim.Options{MaxRounds: sim.DefaultMaxRounds(n)})
	if err != nil {
		return nil, nil, err
	}
	_ = res
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		return nil, nil, fmt.Errorf("churn: seeded network not in stable state: %w", err)
	}
	return nw, ids, nil
}

// Apply executes one event (Event.Apply) on the scheduler's network and
// runs the scheduler to the next fixed point, returning the recovery
// cost. Passing the network itself repairs under synchronous rounds;
// passing a rechord.AsyncRunner repairs under the asynchronous
// adversary (Rounds then counts asynchronous steps).
func Apply(ctx context.Context, s rechord.Scheduler, ev Event, maxRounds int) (Recovery, error) {
	if err := ev.Apply(s.Network()); err != nil {
		return Recovery{}, err
	}
	if maxRounds <= 0 {
		maxRounds = sim.DefaultBudget(s)
	}
	res := sim.Run(ctx, s, sim.Options{MaxRounds: maxRounds})
	if res.Canceled {
		return Recovery{Rounds: res.Rounds}, ctx.Err()
	}
	return Recovery{Rounds: res.Rounds, Stable: res.Stable}, nil
}

// VerifyStable checks that the network sits in the exact stable state
// for its current membership.
func VerifyStable(nw *rechord.Network) error {
	return rechord.ComputeIdeal(nw.Peers()).Matches(nw)
}

// RunSequence applies a series of events, verifying convergence to the
// correct stable state after each one, under whichever scheduler is
// active.
func RunSequence(ctx context.Context, s rechord.Scheduler, events []Event, maxRounds int) ([]Recovery, error) {
	out := make([]Recovery, 0, len(events))
	for _, ev := range events {
		rec, err := Apply(ctx, s, ev, maxRounds)
		if err != nil {
			return out, err
		}
		if !rec.Stable {
			return out, fmt.Errorf("churn: network did not re-stabilize after %v", ev)
		}
		if err := VerifyStable(s.Network()); err != nil {
			return out, fmt.Errorf("churn: wrong state after %v: %w", ev, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// RandomEvents generates a mixed workload over the current membership:
// joins of fresh ids and leaves/failures of random existing peers,
// never emptying the network below two peers.
func RandomEvents(nw *rechord.Network, count int, rng *rand.Rand) []Event {
	existing := append([]ident.ID(nil), nw.Peers()...)
	var out []Event
	for i := 0; i < count; i++ {
		switch {
		case len(existing) < 3 || rng.Intn(2) == 0:
			id := ident.ID(rng.Uint64() | 1)
			contact := existing[rng.Intn(len(existing))]
			out = append(out, Event{Kind: Join, ID: id, Contact: contact})
			existing = append(existing, id)
		default:
			j := rng.Intn(len(existing))
			kind := Leave
			if rng.Intn(2) == 0 {
				kind = Fail
			}
			out = append(out, Event{Kind: kind, ID: existing[j]})
			existing = append(existing[:j], existing[j+1:]...)
		}
	}
	return out
}
