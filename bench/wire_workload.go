package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/wire"
)

// wireScript makes one rep's run description: n peers in a random
// topology, then a join, a graceful leave and a crash while it
// stabilizes (rounds 5, 10, 15). Victims and the joiner's contact are
// members of the generated network, picked the way internal/wire's
// gate script picks them, and the script goes through its textual form
// as it would between real processes.
func wireScript(n int, seed int64) (*wire.Script, error) {
	s := &wire.Script{Topology: "random", N: n, Seed: seed, MaxRounds: wire.DefaultMaxRounds}
	nw, err := s.Build(rechord.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	ids := nw.Peers()
	s.Ops = []wire.Op{
		{Round: 5, Kind: wire.OpJoin, ID: 0x5a5a000000000001, Contact: ids[0]},
		{Round: 10, Kind: wire.OpLeave, ID: ids[3%len(ids)]},
		{Round: 15, Kind: wire.OpFail, ID: ids[7%len(ids)]},
	}
	return wire.ParseScript(bytes.NewReader(s.Format()))
}

// runRanks runs the script as a star of ranks, each a goroutine with
// its own replica, over the transport: rank 0 seeds on the listener,
// the others dial it. It returns rank 0's combined result.
func runRanks(tr wire.Transport, ln wire.Listener, s *wire.Script, ranks int, met *obs.WireMetrics) (*wire.Result, error) {
	cfg := rechord.Config{Workers: 1}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for rank := 1; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := tr.Dial(ln.Addr())
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			nd := &wire.Node{Rank: rank, Procs: ranks, Script: s, Config: cfg}
			_, errs[rank] = nd.RunWorker(c)
		}(rank)
	}
	seed := &wire.Node{Rank: 0, Procs: ranks, Script: s, Config: cfg, Metrics: met}
	res, err := seed.RunSeed(ln)
	if err != nil {
		// A worker blocked on a seed that gave up would never return;
		// closing the listener's connections is the seed's job, so only
		// report and let the process end.
		return nil, fmt.Errorf("seed: %w", err)
	}
	wg.Wait()
	for rank, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, e)
		}
	}
	return res, nil
}

// runWire: each unit runs a fresh script over TCP on the loopback
// interface and checks the cluster's fingerprint against the same
// script run on one monolithic network (the round counts may differ by
// a few: the two detect the fixed point differently). wrap, when set,
// decorates the unit's transport.
func runWire(_ context.Context, sz sizing, seed int64, p plan, wrap func(t wire.Transport, unit int) wire.Transport) *pass {
	out := &pass{peers: sz.wireN}
	if p.cold() {
		if script, err := wireScript(sz.wireN, subseed(seed, -1)); err == nil {
			tr := wire.NewTCP(nil)
			if ln, err := tr.Listen("127.0.0.1:0"); err == nil {
				runRanks(tr, ln, script, sz.ranks, nil)
				ln.Close()
			}
		}
	}
	p.run(out, 0, 1, func(i int) unit {
		u := unit{ops: 1}
		fail := func(err error) unit {
			u.err, u.failed = fmt.Errorf("rep %d: %w", i, err), 1
			return u
		}
		runtime.GC() // as for a convergence: every rep starts from a collected heap
		met := &obs.WireMetrics{}
		var tr wire.Transport = wire.NewTCP(met)
		if wrap != nil {
			tr = wrap(tr, i)
		}
		var script *wire.Script
		var ln wire.Listener
		var err error
		out.timeSetup(func() {
			if script, err = wireScript(sz.wireN, subseed(seed, i)); err == nil {
				ln, err = tr.Listen("127.0.0.1:0")
			}
		})
		if err != nil {
			return fail(err)
		}
		m := startMeter()
		res, err := runRanks(tr, ln, script, sz.ranks, met)
		m.stop(&u)
		ln.Close()
		if err != nil {
			return fail(err)
		}
		u.rounds, u.wire = res.Rounds, met.Snapshot()

		t := time.Now()
		fp, _, err := script.RunMonolith(rechord.Config{Workers: 1})
		u.monoWall = time.Since(t)
		switch {
		case err != nil:
			return fail(fmt.Errorf("monolith: %w", err))
		case fp != res.Fingerprint:
			return fail(fmt.Errorf("fingerprint %016x, monolith %016x", res.Fingerprint, fp))
		case res.Peers != sz.wireN-1:
			return fail(fmt.Errorf("%d peers at the end, want %d", res.Peers, sz.wireN-1))
		}
		u.exact = []counter{{"rounds", uint64(res.Rounds)}, {"fingerprint", res.Fingerprint}}
		return u
	})
	return out
}
