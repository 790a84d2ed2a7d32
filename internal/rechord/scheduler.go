package rechord

import "repro/internal/ident"

// Scheduler is the execution layer of the simulation: the policy that
// decides which peers run their rules when, and when the messages they
// emit become visible. The protocol itself (rules 1-6, the edge sets,
// the message semantics) lives below this interface; everything above
// it — the sim runner, the workload engine, the churn drivers, the
// cluster facade — steps "the scheduler", not "the round engine", so
// the same experiment runs unchanged under the paper's synchronous
// model or under an asynchronous adversary.
//
// Three implementations exist:
//
//   - *Network itself: the synchronous round engine. Step executes one
//     synchronous round over the activity-tracked frontier.
//   - *AsyncRunner: the event-driven asynchronous scheduler. Step
//     advances one tick of virtual time, delivering due messages and
//     activating the frontier peers whose (geometric) activation draw
//     came up.
//   - *Partition: one process's share of a replicated network. Step is
//     the round engine's round restricted to the hosted peers, with the
//     cross-partition effects collected for the exchange.
//
// All share the dirty-set infrastructure: a peer at a local fixed
// point is skipped and its repeating output flow is represented by its
// standing per-sender inbox buckets, so the cost of a step is
// proportional to the frontier, never to the network size.
type Scheduler interface {
	// Network returns the underlying protocol state. Membership
	// operations (Join, Leave, Fail, SeedEdge) and all introspection go
	// through it; only stepping goes through the scheduler.
	Network() *Network

	// Step executes one scheduling unit — a synchronous round or one
	// asynchronous time step — and reports what happened.
	Step() RoundStats

	// Time returns the number of scheduling units executed so far
	// (rounds for the synchronous engine, steps for the asynchronous
	// one).
	Time() int

	// LastChange returns the most recent time whose execution changed
	// the global state (0 if nothing changed yet): the quantity
	// convergence experiments report. A time that changed no peer's
	// state (the epoch clock did not move) but swapped standing outputs
	// still counts, so this may exceed the literal rounds-to-stable by one.
	LastChange() int

	// Quiescent reports whether the execution is at its fixed point: no
	// peer's inputs changed since it last reached a local fixed point
	// and no in-flight delivery can still change anything. Every
	// further Step is the identity on the global state.
	Quiescent() bool

	// InFlight returns the number of messages currently in flight:
	// standing buckets, one-shot inbox entries, and (for event-driven
	// schedulers) messages inside pending delivery events.
	InFlight() int

	// Wake schedules the peer to run again, for callers that mutate
	// peer state out of band (fault injection, perturbation tests).
	Wake(id ident.ID)
}

// Network returns the network itself: the synchronous round engine is
// its own scheduler.
func (nw *Network) Network() *Network { return nw }

// Time returns the number of rounds executed so far (same as Round; the
// name the Scheduler interface uses for its unit-agnostic clock).
func (nw *Network) Time() int { return nw.round }

// LastChange returns the most recent round whose execution changed the
// global state: the quantity the convergence experiments report.
func (nw *Network) LastChange() int { return nw.lastChange }

// InFlight returns the number of messages pending delivery: the
// standing per-sender buckets plus the one-shot inboxes.
func (nw *Network) InFlight() int {
	c := nw.bucketMsgs
	for _, n := range nw.pt.nodes {
		if n != nil {
			c += len(n.inbox)
		}
	}
	return c
}

var _ Scheduler = (*Network)(nil)
