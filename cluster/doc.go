// Package cluster is the public facade of the Re-Chord reproduction:
// one context-aware API over the four layers every consumer used to
// hand-wire — the self-stabilizing round engine (internal/rechord +
// internal/sim), the Chord router's published view (internal/routing),
// the sharded key-value store (internal/dht), and the concurrent traffic
// engine (internal/workload).
//
// A Cluster is built with functional options and consumed through four
// method groups:
//
//   - Lifecycle: Join, Leave, Fail apply membership events;
//     Stabilize(ctx) runs the six Re-Chord repair rules to the global
//     fixed point (cancellable, deadline-bounded); Quiescent reports
//     whether the network is at that fixed point.
//   - KV: Get, Put, Delete and Lookup route operations over the
//     overlay from round-robin home peers, by table routing on the
//     router's published view, surfacing the unified error taxonomy
//     (ErrNotFound, ErrNoRoute, ErrUnknownPeer, ...). Between a
//     membership event and Stabilize a lookup may return ErrNoRoute
//     (see Join, Leave, Fail).
//   - Traffic: RunWorkload(ctx, cfg) drives the concurrent workload
//     engine — client workers, pluggable key distributions, churn
//     interleaved with the traffic — and returns merged telemetry.
//   - Events: Subscribe returns a stream of lifecycle events (peer
//     joined/left/failed, region settled, epoch bumped), replacing
//     ad-hoc polling of frontier sizes and quiescence flags.
//
// # Execution models
//
// WithAsync(p, delay) switches the cluster from the paper's
// synchronous round model to the event-driven asynchronous scheduler:
// each frontier peer activates with probability p per step and
// messages arrive after a delay drawn from the model (DelayUniform,
// DelayGeometric, DelayPareto, or ParseDelayModel for flag strings).
// Every facade method works unchanged; reports and event timestamps
// that count "rounds" count asynchronous steps instead (Steps returns
// that clock, Round stays the synchronous round counter).
//
// # Concurrency model
//
// The facade serializes network mutation against the KV methods with
// one RWMutex: KV methods take the read side, lifecycle methods and
// Stabilize take the write side and publish the router's view before
// they release it. Stabilize and RunWorkload hold the write side for
// their whole run, so KV callers block until they return; both honor
// context cancellation, observed between protocol rounds, so the
// network is always released at a round barrier in a consistent,
// steppable state. RunWorkload's internal interleaving (lookups racing
// re-stabilization mid-churn) happens inside the workload engine, which
// has no lock at all: its clients route over the published view and
// retry on the next one when a mid-repair table cannot complete a
// lookup. The facade's own KV methods route on the same view the same
// way and read nothing else of the network; with no repair in flight
// to wait for, a lookup that cannot complete returns ErrNoRoute.
//
// # Event-stream contract
//
// Subscribe(buf) returns a buffered channel and a cancel function.
// Publishing never blocks the cluster: an event that does not fit in a
// subscriber's buffer is dropped for that subscriber (EventsDropped
// counts them), so a slow consumer can lose events but never stall
// lifecycle operations. Events are published after the state change
// they describe is visible; Close closes every subscriber channel.
package cluster
