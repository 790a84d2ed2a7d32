package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/churn"
	"repro/internal/sim"
	"repro/internal/workload"
)

// peerEvents names each membership event on the event stream.
var peerEvents = map[churn.Kind]EventKind{
	churn.Join:  EventPeerJoined,
	churn.Leave: EventPeerLeft,
	churn.Fail:  EventPeerFailed,
}

// applyEvent executes one membership change and publishes it — to the
// router's view, and on the event stream as soon as it is visible,
// before any repair (the stream's contract). Callers hold the write
// lock.
func (c *Cluster) applyEvent(ev churn.Event) error {
	if err := ev.Apply(c.nw); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrUnknownPeer, ev.Kind, err)
	}
	c.cache.Publish()
	c.bus.publish(Event{Kind: peerEvents[ev.Kind], Peer: PeerID(ev.ID), Round: c.clock()})
	return nil
}

// restoreInvariants re-establishes the facade guarantees after
// anything churned the membership: finish any interrupted repair,
// rebalance the store onto current ownership, level the router's view
// and prune the departed peers' tables from it, and publish an epoch
// event when any peer state changed since epoch0. Callers hold the
// write lock.
func (c *Cluster) restoreInvariants(epoch0 int) error {
	if !c.sched.Quiescent() {
		sim.Run(context.Background(), c.sched, sim.Options{})
	}
	var err error
	if _, rerr := c.store.Rebalance(); rerr != nil {
		err = fmt.Errorf("%w: rebalance: %v", ErrUnknownPeer, rerr)
	}
	c.cache.Prune()
	if epoch := c.nw.EpochClock(); epoch != epoch0 {
		c.bus.publish(Event{Kind: EventEpochBumped, Epoch: epoch, Round: c.clock()})
	}
	return err
}

// WorkloadConfig parameterizes one RunWorkload call. The zero value of
// every field means "engine default"; only Ops or Duration must be
// set.
type WorkloadConfig struct {
	// Workers is the number of concurrent client workers (default 4).
	Workers int
	// Ops is the total operation count, split across workers.
	Ops int
	// Duration, when positive, replaces Ops as the stop condition.
	Duration time.Duration
	// Keyspace is the number of distinct keys (default 4096).
	Keyspace int
	// Distribution is DistUniform, DistZipf or DistHotspot.
	Distribution string
	// GetFrac, PutFrac, DeleteFrac is the op mix (default .80/.15/.05).
	GetFrac, PutFrac, DeleteFrac float64
	// Preload stores this many keys before the measured run.
	Preload int
	// Seed drives every random choice of the run (op streams, churn
	// selection). Same seed + same config: identical op streams.
	Seed int64
	// Rate, when positive, paces an open loop at this many ops/sec
	// across all workers; 0 is a closed loop.
	Rate float64
	// ChurnEvents is the number of membership events interleaved with
	// the traffic; 0 disables churn.
	ChurnEvents int
	// ChurnEveryOps spaces consecutive events by completed operations
	// (default: spread evenly across the run).
	ChurnEveryOps int
}

// OpReport is the telemetry of one operation kind (re-exported from
// the traffic engine).
type OpReport = workload.OpStats

// WorkloadReport is the merged telemetry of one RunWorkload call
// (re-exported from the traffic engine); Summary renders its headline
// numbers as one line.
type WorkloadReport = workload.Result

// RunWorkload drives the concurrent traffic engine against the
// cluster: a pool of client workers firing Get/Put/Delete at the
// overlay, optionally racing membership churn, returning the merged
// telemetry. The call holds the cluster's write side for the whole run
// (facade KV methods block until it returns); the fine-grained
// interleaving of lookups with re-stabilization happens inside the
// engine. Cancellation stops workers and the churn driver end to end
// and returns the partial telemetry together with ctx.Err(); a repair
// that ran out of its round budget returns it with ErrUnstable. Either
// way the network is finished re-stabilizing by the facade before the
// method returns, so the cluster stays serviceable.
//
// Workload churn is published on the event stream: one peer event per
// applied membership change, a region-settled event per repair that
// settled, and one epoch-bumped event when the run changed any peer
// state.
func (c *Cluster) RunWorkload(ctx context.Context, cfg WorkloadConfig) (*WorkloadReport, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	epoch0 := c.nw.EpochClock()
	wcfg := workload.Config{
		Workers:      cfg.Workers,
		Ops:          cfg.Ops,
		Duration:     cfg.Duration,
		Keyspace:     cfg.Keyspace,
		Distribution: cfg.Distribution,
		GetFrac:      cfg.GetFrac,
		PutFrac:      cfg.PutFrac,
		DeleteFrac:   cfg.DeleteFrac,
		Preload:      cfg.Preload,
		Seed:         cfg.Seed,
		Rate:         cfg.Rate,
		Cache:        c.cache,
		Obs:          c.met,
		Churn: workload.ChurnConfig{
			Events:   cfg.ChurnEvents,
			EveryOps: cfg.ChurnEveryOps,
			// Engine-driven events carry no Round: the callbacks run on
			// the churn-driver goroutine, which may not read the round
			// counter while workers are mid-operation.
			OnApply: func(ev churn.Event) {
				c.bus.publish(Event{Kind: peerEvents[ev.Kind], Peer: PeerID(ev.ID)})
			},
			OnSettle: func(rounds int) {
				c.bus.publish(Event{Kind: EventRegionSettled, Rounds: rounds, Peers: c.nw.NumPeers()})
			},
		},
	}

	res, runErr := workload.Run(ctx, c.sched, wcfg)
	if res == nil {
		switch {
		case runErr == nil:
			return nil, nil
		case errors.Is(runErr, workload.ErrConfig):
			// The engine rejected the configuration before starting.
			return nil, fmt.Errorf("%w: %v", ErrConfig, runErr)
		case ctx.Err() != nil:
			return nil, runErr
		default:
			// A runtime failure before the measured run began (empty
			// network, preload routing error on an unstable topology).
			return nil, fmt.Errorf("%w: %v", ErrNoRoute, runErr)
		}
	}

	if errors.Is(runErr, workload.ErrUnsettled) {
		runErr = fmt.Errorf("%w: %v", ErrUnstable, runErr)
	}
	// The run may have churned the membership (and a canceled or
	// exhausted run may have left the repair unfinished): restore the
	// facade invariants before releasing the lock.
	if err := c.restoreInvariants(epoch0); err != nil && runErr == nil {
		runErr = err
	}
	return res, runErr
}

// Recovery reports how one churn event was absorbed.
type Recovery struct {
	// Kind is "join", "leave" or "fail".
	Kind string
	// Peer is the peer that joined or departed.
	Peer PeerID
	// Rounds is how many repair rounds the re-stabilization took.
	Rounds int
}

// ChurnRandom applies a seed-derived random mix of joins, graceful
// leaves and crash failures, re-stabilizing (and verifying the stable
// state) after each event, and returns the per-event recovery costs.
// Each event is published on the event stream as soon as it is
// applied, followed by its region-settled event once the repair
// completes. Cancellation returns the completed recoveries with
// ctx.Err(); the interrupted repair is finished by the facade before
// the method returns.
func (c *Cluster) ChurnRandom(ctx context.Context, events int) (recs []Recovery, err error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	if events < 0 {
		return nil, fmt.Errorf("%w: churn events %d is negative", ErrConfig, events)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	epoch0 := c.nw.EpochClock()
	defer func() {
		if rerr := c.restoreInvariants(epoch0); rerr != nil && err == nil {
			err = rerr
		}
	}()

	var out []Recovery
	for _, ev := range churn.RandomEvents(c.nw, events, c.rng) {
		if err := c.applyEvent(ev); err != nil {
			return out, err
		}

		res := sim.Run(ctx, c.sched, sim.Options{})
		if res.Canceled {
			return out, ctx.Err()
		}
		if !res.Stable {
			return out, fmt.Errorf("%w: network did not re-stabilize after %s of %s", ErrUnstable, ev.Kind, ev.ID)
		}
		if verr := churn.VerifyStable(c.nw); verr != nil {
			return out, fmt.Errorf("%w: after %s of %s: %v", ErrUnstable, ev.Kind, ev.ID, verr)
		}
		c.bus.publish(Event{Kind: EventRegionSettled, Rounds: res.Rounds, Peers: c.nw.NumPeers(), Round: c.clock()})
		out = append(out, Recovery{Kind: string(ev.Kind), Peer: PeerID(ev.ID), Rounds: res.Rounds})
	}
	return out, nil
}
