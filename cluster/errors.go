package cluster

import (
	"errors"
	"fmt"

	"repro/internal/dht"
	"repro/internal/obs"
)

// The unified error taxonomy of the facade. Every error returned by a
// Cluster method matches exactly one of these with errors.Is (or is a
// context error from a canceled/expired ctx, passed through).
var (
	// ErrConfig reports invalid construction options or an invalid
	// workload configuration.
	ErrConfig = errors.New("cluster: invalid configuration")
	// ErrClosed reports an operation on a closed cluster.
	ErrClosed = errors.New("cluster: closed")
	// ErrUnknownPeer reports a lifecycle or KV operation naming a peer
	// that is not in the cluster.
	ErrUnknownPeer = errors.New("cluster: unknown peer")
	// ErrNotFound reports a Get whose routing reached the key's owner
	// but found the key absent — distinct from ErrNoRoute, after which
	// nothing is known about the key.
	ErrNotFound = errors.New("cluster: key not found")
	// ErrNoRoute reports an operation whose overlay routing could not
	// complete, typically because the touched tables were still being
	// repaired mid-churn.
	ErrNoRoute = errors.New("cluster: no route to key owner")
	// ErrUnstable reports a network that did not reach (or is not in)
	// the stable state: Stabilize exceeded its round budget, or
	// VerifyStable found a deviation from the oracle topology.
	ErrUnstable = errors.New("cluster: network not in the stable state")
)

// opError translates a store/routing error into the facade taxonomy,
// keeping the underlying detail in the message.
func opError(op, key string, err error) error {
	switch dht.Outcome(err) {
	case obs.OpOK:
		return nil
	case obs.OpNotFound:
		return fmt.Errorf("%w: %s %q", ErrNotFound, op, key)
	case obs.OpUnknownPeer:
		return fmt.Errorf("%w: %s %q: %v", ErrUnknownPeer, op, key, err)
	default:
		return fmt.Errorf("%w: %s %q: %v", ErrNoRoute, op, key, err)
	}
}
