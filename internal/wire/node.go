package wire

import (
	"fmt"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
)

// Node runs one partition of a scripted Re-Chord network as a wire
// peer: it rebuilds the full replicated membership from the script,
// executes the hosted peers' rules through rechord.Partition, and
// exchanges round frames over a Transport.
//
// The cluster is a star around rank 0 (the seed): each worker sends
// its round frame to the seed, and the seed, gathering the frames in
// rank order, routes every effect into the share of the rank that
// applies it — a bucket update or one-shot to its recipient's host
// (hostOf), a publish to every rank but its owner's host. It decides
// termination and sends each worker only its share; every share
// carries the cluster-wide Changed and Done. Each rank hands its share
// to Partition.Apply, whose hosted filter is the apply rule itself (the
// route only spares the bytes), so all replicas stay consistent without
// a full mesh or a distributed termination protocol.
type Node struct {
	Rank  int
	Procs int

	Script *Script
	Config rechord.Config

	// Metrics, when set, receives the wire counters (also threaded
	// into the transport's codec if the caller passes the same set
	// there).
	Metrics *obs.WireMetrics

	// Logf, when set, receives progress lines (the node binary wires
	// it to its stdout in verbose mode).
	Logf func(format string, args ...any)
}

// Result is one node's outcome. On rank 0, Fingerprint is the
// XOR-combined cluster fingerprint and Peers the total peer count; on
// workers both cover only the local partition.
type Result struct {
	Fingerprint uint64
	Peers       int
	Rounds      int
}

func (nd *Node) logf(format string, args ...any) {
	if nd.Logf != nil {
		nd.Logf(format, args...)
	}
}

func (nd *Node) validate() error {
	if nd.Script == nil {
		return fmt.Errorf("wire: node needs a script")
	}
	if nd.Procs < 1 {
		return fmt.Errorf("wire: procs must be >= 1, got %d", nd.Procs)
	}
	if nd.Rank < 0 || nd.Rank >= nd.Procs {
		return fmt.Errorf("wire: rank %d out of range [0,%d)", nd.Rank, nd.Procs)
	}
	return nil
}

// hostOf is the rank that hosts peer id among procs ranks: the one
// hosting rule of a partitioned run, used by every rank's partition
// and by the seed's router.
func hostOf(id ident.ID, procs int) int { return int(uint64(id) % uint64(procs)) }

// newPartition builds this rank's partition over a fresh replica.
func (nd *Node) newPartition() (*rechord.Partition, error) {
	nw, err := nd.Script.Build(nd.Config)
	if err != nil {
		return nil, err
	}
	return rechord.NewPartition(nw, func(id ident.ID) bool { return hostOf(id, nd.Procs) == nd.Rank }), nil
}

// router holds one round's per-rank shares, indexed by rank, which the
// seed fills as it gathers the frames in rank order: a bucket update or
// one-shot goes to its recipient's host, a publish to every rank except
// its owner's host, so each share holds, in merge order, exactly what
// its rank applies. The shares reuse their storage round after round;
// they point into the gathered frames, so they are valid as long as
// those.
type router []RoundFrame

// reset empties the shares for round r.
func (rt router) reset(r int) {
	for k := range rt {
		sh := &rt[k]
		*sh = RoundFrame{Round: r, Effects: rechord.Effects{
			Buckets:   sh.Buckets[:0],
			OneShots:  sh.OneShots[:0],
			Publishes: sh.Publishes[:0],
		}}
	}
}

// route appends one rank's frame to the shares.
func (rt router) route(f *RoundFrame) {
	for _, u := range f.Buckets {
		sh := &rt[hostOf(u.To, len(rt))]
		sh.Buckets = append(sh.Buckets, u)
	}
	for _, u := range f.OneShots {
		sh := &rt[hostOf(u.To, len(rt))]
		sh.OneShots = append(sh.OneShots, u)
	}
	for _, u := range f.Publishes {
		owner := hostOf(u.Owner, len(rt))
		for k := range rt {
			if k != owner {
				rt[k].Publishes = append(rt[k].Publishes, u)
			}
		}
	}
}

// decide stamps the round's cluster-wide verdicts on every share.
func (rt router) decide(changed, done bool) {
	for k := range rt {
		rt[k].Changed, rt[k].Done = changed, done
	}
}

// recvRound receives round r's frame: anything else means the peer is
// out of sync.
func recvRound(c Conn, r int) (*RoundFrame, error) {
	f, err := c.Recv()
	if err != nil {
		return nil, err
	}
	rf, ok := f.(*RoundFrame)
	if !ok || rf.Round != r {
		return nil, fmt.Errorf("out of sync at round %d (%T)", r, f)
	}
	return rf, nil
}

// runRounds is the lockstep round loop of every rank: apply the due
// script ops, step the hosted batch, exchange this rank's frame for
// its share of the round's effects, apply the share, until a share
// says Done. The exchange is the only per-rank difference (worker:
// send the frame, receive the share; seed: gather in rank order, route
// into shares, decide Done, send each worker its share); opsDone tells
// it whether the script is exhausted. The frame handed to exchange
// holds the drained effects, valid until the next Step; the share it
// returns must stay valid until Apply has run. The result covers the
// local partition.
func (nd *Node) runRounds(exchange func(own *RoundFrame, opsDone bool) (*RoundFrame, error)) (*Result, error) {
	p, err := nd.newPartition()
	if err != nil {
		return nil, err
	}
	next := 0
	var own RoundFrame
	for r := 1; ; r++ {
		due, err := nd.Script.applyDue(p, next, r)
		if err != nil {
			return nil, err
		}
		p.Step()
		changed := due != next || !p.Quiescent()
		next = due
		own = RoundFrame{Round: r, Effects: p.Drain()}
		own.Changed = changed || own.Len() > 0
		share, err := exchange(&own, next == len(nd.Script.Ops))
		if err != nil {
			return nil, err
		}
		p.Apply(&share.Effects)
		if share.Done {
			return &Result{Fingerprint: p.Fingerprint(), Peers: p.HostedPeers(), Rounds: r}, nil
		}
	}
}

// RunSeed runs rank 0: accept the workers, drive the lockstep rounds,
// decide termination, and combine the fingerprints. Every accepted
// connection is closed on return, success or error, so a worker
// blocked on a seed that gave up gets an error instead of a hang.
func (nd *Node) RunSeed(ln Listener) (*Result, error) {
	if err := nd.validate(); err != nil {
		return nil, err
	}
	if nd.Rank != 0 {
		return nil, fmt.Errorf("wire: RunSeed called on rank %d", nd.Rank)
	}

	// Bootstrap: one Hello per worker, slotted by rank.
	conns := make([]Conn, nd.Procs) // conns[0] stays nil (self)
	var accepted []Conn
	defer func() {
		for _, c := range accepted {
			c.Close()
		}
	}()
	for i := 1; i < nd.Procs; i++ {
		c, err := ln.Accept()
		if err != nil {
			return nil, errTransport("accept", ln.Addr(), err)
		}
		accepted = append(accepted, c)
		f, err := c.Recv()
		if err != nil {
			return nil, fmt.Errorf("wire: seed handshake: %w", err)
		}
		h, ok := f.(*Hello)
		if !ok {
			return nil, fmt.Errorf("wire: seed handshake: want hello, got %T", f)
		}
		if h.Procs != nd.Procs {
			return nil, fmt.Errorf("wire: worker believes procs=%d, seed has %d", h.Procs, nd.Procs)
		}
		if h.Rank < 1 || h.Rank >= nd.Procs || conns[h.Rank] != nil {
			return nil, fmt.Errorf("wire: bad or duplicate worker rank %d", h.Rank)
		}
		conns[h.Rank] = c
	}
	nd.logf("seed: %d workers connected", nd.Procs-1)

	var runErr error // non-convergence: the run still ends in lockstep
	rt := make(router, nd.Procs)
	res, err := nd.runRounds(func(own *RoundFrame, opsDone bool) (*RoundFrame, error) {
		r := own.Round
		rt.reset(r)
		rt.route(own)
		changed := own.Changed
		for rank := 1; rank < nd.Procs; rank++ {
			rf, err := recvRound(conns[rank], r)
			if err != nil {
				return nil, fmt.Errorf("wire: seed recv round %d from rank %d: %w", r, rank, err)
			}
			rt.route(rf)
			changed = changed || rf.Changed
		}
		done := !changed && opsDone
		if r >= nd.Script.MaxRounds && !done {
			done = true
			runErr = fmt.Errorf("wire: cluster did not converge in %d rounds", nd.Script.MaxRounds)
		}
		rt.decide(changed, done)
		for rank := 1; rank < nd.Procs; rank++ {
			if err := conns[rank].Send(&rt[rank]); err != nil {
				return nil, fmt.Errorf("wire: seed send share to rank %d: %w", rank, err)
			}
		}
		return &rt[0], nil
	})
	if err != nil {
		return nil, err
	}

	for rank := 1; rank < nd.Procs; rank++ {
		f, err := conns[rank].Recv()
		if err != nil {
			return nil, fmt.Errorf("wire: seed recv fin from rank %d: %w", rank, err)
		}
		fin, ok := f.(*Fin)
		if !ok {
			return nil, fmt.Errorf("wire: seed: want fin from rank %d, got %T", rank, f)
		}
		res.Fingerprint ^= fin.Fingerprint
		res.Peers += fin.Peers
	}
	if runErr != nil {
		return nil, runErr
	}
	nd.logf("seed: converged round=%d peers=%d fingerprint=%016x", res.Rounds, res.Peers, res.Fingerprint)
	return res, nil
}

// RunWorker runs rank >= 1 over an established connection to the seed.
func (nd *Node) RunWorker(c Conn) (*Result, error) {
	if err := nd.validate(); err != nil {
		return nil, err
	}
	if nd.Rank == 0 {
		return nil, fmt.Errorf("wire: RunWorker called on rank 0")
	}
	if err := c.Send(&Hello{Rank: nd.Rank, Procs: nd.Procs}); err != nil {
		return nil, fmt.Errorf("wire: worker hello: %w", err)
	}
	res, err := nd.runRounds(func(own *RoundFrame, _ bool) (*RoundFrame, error) {
		if err := c.Send(own); err != nil {
			return nil, fmt.Errorf("wire: worker send round %d: %w", own.Round, err)
		}
		share, err := recvRound(c, own.Round)
		if err != nil {
			return nil, fmt.Errorf("wire: worker recv share %d: %w", own.Round, err)
		}
		return share, nil
	})
	if err != nil {
		return nil, err
	}
	if err := c.Send(&Fin{Fingerprint: res.Fingerprint, Peers: res.Peers, Rounds: res.Rounds}); err != nil {
		return nil, fmt.Errorf("wire: worker fin: %w", err)
	}
	nd.logf("rank %d: done round=%d peers=%d local=%016x", nd.Rank, res.Rounds, res.Peers, res.Fingerprint)
	return res, nil
}
