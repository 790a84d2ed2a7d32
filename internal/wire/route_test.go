package wire

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
)

// benchScript is the bench's wire script shape (BenchmarkChanCluster):
// a random n=192 network with a join, a graceful leave and a crash at
// rounds 5, 10 and 15.
func benchScript(tb testing.TB) *Script {
	tb.Helper()
	s := &Script{Topology: "random", N: 192, Seed: 1, MaxRounds: DefaultMaxRounds}
	nw, err := s.Build(testConfig())
	if err != nil {
		tb.Fatal(err)
	}
	ids := nw.Peers()
	s.Ops = []Op{
		{Round: 5, Kind: OpJoin, ID: 0x5a5a000000000001, Contact: ids[0]},
		{Round: 10, Kind: OpLeave, ID: ids[3]},
		{Round: 15, Kind: OpFail, ID: ids[7]},
	}
	return s
}

// cloneRound deep-copies a round frame: a received frame lives only
// until the next Recv, a sent share only until the next round.
func cloneRound(f *RoundFrame) *RoundFrame {
	c := *f
	c.Buckets = slices.Clone(f.Buckets)
	for i := range c.Buckets {
		c.Buckets[i].Recs = slices.Clone(c.Buckets[i].Recs)
	}
	c.OneShots = slices.Clone(f.OneShots)
	for i := range c.OneShots {
		c.OneShots[i].Msgs = slices.Clone(c.OneShots[i].Msgs)
	}
	c.Publishes = slices.Clone(f.Publishes)
	for i := range c.Publishes {
		c.Publishes[i].Views = slices.Clone(c.Publishes[i].Views)
	}
	return &c
}

// frameTap records, per worker rank, the round frames the seed
// receives and the shares it sends, as copies.
type frameTap struct {
	mu   sync.Mutex
	recv map[int][]*RoundFrame
	sent map[int][]*RoundFrame
}

type tapListener struct {
	Listener
	tap *frameTap
}

func (l *tapListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: l.tap}, nil
}

// tapConn is one seed-side connection; its rank is learned from the
// worker's Hello.
type tapConn struct {
	Conn
	tap  *frameTap
	rank int
}

func (c *tapConn) Recv() (Frame, error) {
	f, err := c.Conn.Recv()
	switch f := f.(type) {
	case *Hello:
		c.rank = f.Rank
	case *RoundFrame:
		c.tap.mu.Lock()
		c.tap.recv[c.rank] = append(c.tap.recv[c.rank], cloneRound(f))
		c.tap.mu.Unlock()
	}
	return f, err
}

func (c *tapConn) Send(f Frame) error {
	if rf, ok := f.(*RoundFrame); ok {
		c.tap.mu.Lock()
		c.tap.sent[c.rank] = append(c.tap.sent[c.rank], cloneRound(rf))
		c.tap.mu.Unlock()
	}
	return c.Conn.Send(f)
}

// tapTransport hands the seed a recording listener.
type tapTransport struct {
	Transport
	tap *frameTap
}

func (t tapTransport) Listen(addr string) (Listener, error) {
	ln, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tapListener{Listener: ln, tap: t.tap}, nil
}

// shareOf filters the round's merged effects to what rank k applies,
// by the partition's own apply rule: a bucket update or one-shot whose
// recipient k hosts, a publish whose owner k does not host.
func shareOf(merged *rechord.Effects, k, procs int) rechord.Effects {
	hosted := func(id ident.ID) bool { return uint64(id)%uint64(procs) == uint64(k) }
	var sh rechord.Effects
	for _, u := range merged.Buckets {
		if hosted(u.To) {
			sh.Buckets = append(sh.Buckets, u)
		}
	}
	for _, u := range merged.OneShots {
		if hosted(u.To) {
			sh.OneShots = append(sh.OneShots, u)
		}
	}
	for _, u := range merged.Publishes {
		if !hosted(u.Owner) {
			sh.Publishes = append(sh.Publishes, u)
		}
	}
	return sh
}

// sameEffects compares two effect lists element by element (an empty
// list and nil are the same list on the wire).
func sameEffects(a, b *rechord.Effects) bool {
	eq := func(x, y any) bool {
		if reflect.ValueOf(x).Len() == 0 && reflect.ValueOf(y).Len() == 0 {
			return true
		}
		return reflect.DeepEqual(x, y)
	}
	return eq(a.Buckets, b.Buckets) && eq(a.OneShots, b.OneShots) && eq(a.Publishes, b.Publishes)
}

// TestSeedSendsEachRankItsShare pins the seed's route: each worker
// receives exactly the effects it applies, in merge order, so every
// bucket update and one-shot reaches one rank and every publish the
// procs-1 ranks that do not host its owner. The seed's own drained
// effects are not on the wire, so the test replays rank 0's partition
// beside the recorded run, applying every round's full merge (the
// seed's frame, then the workers' in rank order) as a broadcast would,
// and filters that merge by the apply rule into each rank's expected
// share. The last round's shares are empty and still say Done.
func TestSeedSendsEachRankItsShare(t *testing.T) {
	const procs = 4
	s := GateScript(t)
	tap := &frameTap{recv: map[int][]*RoundFrame{}, sent: map[int][]*RoundFrame{}}
	res := runCluster(t, tapTransport{Transport: NewChanNet(nil, s.Seed, nil), tap: tap}, "seed", s, procs)
	for k := 1; k < procs; k++ {
		if len(tap.recv[k]) != res.Rounds || len(tap.sent[k]) != res.Rounds {
			t.Fatalf("rank %d: %d frames received and %d shares sent over %d rounds",
				k, len(tap.recv[k]), len(tap.sent[k]), res.Rounds)
		}
	}

	nd := &Node{Rank: 0, Procs: procs, Script: s, Config: testConfig()}
	p, err := nd.newPartition()
	if err != nil {
		t.Fatal(err)
	}
	var oneShots, publishes int
	next := 0
	for r := 1; r <= res.Rounds; r++ {
		if next, err = s.applyDue(p, next, r); err != nil {
			t.Fatal(err)
		}
		p.Step()
		merged := p.Drain()
		for k := 1; k < procs; k++ {
			f := tap.recv[k][r-1]
			merged.Buckets = append(merged.Buckets, f.Buckets...)
			merged.OneShots = append(merged.OneShots, f.OneShots...)
			merged.Publishes = append(merged.Publishes, f.Publishes...)
		}
		oneShots += len(merged.OneShots)
		publishes += len(merged.Publishes)
		for k := 1; k < procs; k++ {
			sh := tap.sent[k][r-1]
			for _, u := range sh.Buckets {
				if hostOf(u.To, procs) != k {
					t.Fatalf("round %d: rank %d gets a bucket update for %s, hosted at %d", r, k, u.To, hostOf(u.To, procs))
				}
			}
			for _, u := range sh.OneShots {
				if hostOf(u.To, procs) != k {
					t.Fatalf("round %d: rank %d gets a one-shot for %s, hosted at %d", r, k, u.To, hostOf(u.To, procs))
				}
			}
			for _, u := range sh.Publishes {
				if hostOf(u.Owner, procs) == k {
					t.Fatalf("round %d: rank %d gets the publish of its own peer %s", r, k, u.Owner)
				}
			}
			want := shareOf(&merged, k, procs)
			if !sameEffects(&sh.Effects, &want) {
				t.Fatalf("round %d: rank %d's share is not its slice of the merge in order: got %d/%d/%d effects, want %d/%d/%d",
					r, k, len(sh.Buckets), len(sh.OneShots), len(sh.Publishes),
					len(want.Buckets), len(want.OneShots), len(want.Publishes))
			}
			last := r == res.Rounds
			if sh.Done != last {
				t.Fatalf("round %d: rank %d's share says Done=%v", r, k, sh.Done)
			}
			if last && sh.Len() != 0 {
				t.Fatalf("rank %d's last share is not empty: %d effects", k, sh.Len())
			}
		}
		p.Apply(&merged)
	}
	if oneShots == 0 || publishes == 0 {
		t.Fatalf("the script exercised %d one-shots and %d publishes; want both", oneShots, publishes)
	}
}

// TestWireBytesDeterministic pins byte determinism: connections are
// slotted by rank at the handshake and every frame's content is fixed by
// the run, so the same script sends the same bytes and frames on every
// run and over every transport.
func TestWireBytesDeterministic(t *testing.T) {
	s := benchScript(t)
	type count struct{ bytes, frames uint64 }
	var runs []count
	for _, mk := range []func(*obs.WireMetrics) (Transport, string){
		func(m *obs.WireMetrics) (Transport, string) { return NewChanNet(nil, s.Seed, m), "seed" },
		func(m *obs.WireMetrics) (Transport, string) { return NewChanNet(nil, s.Seed, m), "seed" },
		func(m *obs.WireMetrics) (Transport, string) { return NewTCP(m), "127.0.0.1:0" },
	} {
		var met obs.WireMetrics
		tr, addr := mk(&met)
		runCluster(t, tr, addr, s, 4)
		runs = append(runs, count{met.BytesSent.Value(), met.FramesSent.Value()})
	}
	t.Logf("bytes sent %d, frames %d", runs[0].bytes, runs[0].frames)
	for i, c := range runs[1:] {
		if c != runs[0] {
			t.Fatalf("run %d sent %d bytes in %d frames, run 0 %d bytes in %d frames",
				i+1, c.bytes, c.frames, runs[0].bytes, runs[0].frames)
		}
	}
}

// TestPartitionWorkMatchesMonolith: with no churn, a partitioned run
// does the monolith's work and no more. The bench's wire script without
// its ops runs as one network and as 2 and 4 ranks exchanging their
// effects through the seed's router; the ranks' summed activations,
// deliveries, purges, skipped purges, bucket ops and dep deltas equal
// the monolith's. A remote sender's install keeps its recipient's purge
// mark as the monolith's commit does, so the purge counts agree too.
func TestPartitionWorkMatchesMonolith(t *testing.T) {
	s := benchScript(t)
	s.Ops = nil
	type work struct{ activated, delivered, purges, skipped, bucketOps, depDeltas uint64 }
	add := func(w *work, m *obs.EngineMetrics) {
		w.activated += m.Activated.Value()
		w.delivered += m.Delivered.Value()
		w.purges += m.Purges.Value()
		w.skipped += m.PurgesSkipped.Value()
		w.bucketOps += m.BucketOps.Value()
		w.depDeltas += m.DepDeltas.Value()
	}
	mono, err := s.Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; !mono.Quiescent(); r++ {
		if r > s.MaxRounds {
			t.Fatalf("monolith: no quiescence in %d rounds", s.MaxRounds)
		}
		mono.Step()
	}
	var want work
	add(&want, mono.Obs())
	if want.purges == 0 || want.skipped == 0 {
		t.Fatalf("monolith: %d purges and %d skipped; the run exercises neither mark path", want.purges, want.skipped)
	}
	for _, procs := range []int{2, 4} {
		parts := make([]*rechord.Partition, procs)
		for k := range parts {
			nd := &Node{Rank: k, Procs: procs, Script: s, Config: testConfig()}
			if parts[k], err = nd.newPartition(); err != nil {
				t.Fatal(err)
			}
		}
		rt := make(router, procs)
		frames := make([]RoundFrame, procs)
		for r := 1; ; r++ {
			if r > s.MaxRounds {
				t.Fatalf("%d ranks: no quiescence in %d rounds", procs, s.MaxRounds)
			}
			rt.reset(r)
			moved := false
			for k, p := range parts {
				p.Step()
				frames[k] = RoundFrame{Round: r, Effects: p.Drain()}
				rt.route(&frames[k])
				moved = moved || frames[k].Len() > 0
			}
			quiet := !moved
			for k, p := range parts {
				p.Apply(&rt[k].Effects)
				quiet = quiet && p.Quiescent()
			}
			if quiet {
				break
			}
		}
		var got work
		for _, p := range parts {
			add(&got, p.Network().Obs())
		}
		if got != want {
			t.Errorf("%d ranks: work %+v, monolith %+v", procs, got, want)
		}
	}
}
