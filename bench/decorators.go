package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/dht"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/wire"
)

// The three decorators wrap the layers' public interfaces from the
// benchmark's side: no product code knows it is being traced.

// tracedScheduler spans every Step. It is handed to sim.Run,
// workload.Run (whose churn driver steps it) and churn.Apply in place
// of the network; parent and unit are set by whoever hands it over,
// before the call, and read only by the one goroutine that steps.
type tracedScheduler struct {
	rechord.Scheduler
	rec    *recorder
	parent spanID
	unit   int
}

func (s *tracedScheduler) Step() rechord.RoundStats {
	id := s.rec.begin("rechord.step", s.parent, s.unit)
	st := s.Scheduler.Step()
	s.rec.end(id)
	return st
}

// tracedResolver spans every Resolve under the op span the caller is
// in, so a store op's self time is its span minus this child.
type tracedResolver struct {
	inner  dht.Resolver
	rec    *recorder
	parent *spanID
	unit   int
}

func (r *tracedResolver) Resolve(from, key ident.ID) (ident.ID, int, error) {
	id := r.rec.begin("routing.resolve", *r.parent, r.unit)
	owner, hops, err := r.inner.Resolve(from, key)
	r.rec.end(id)
	return owner, hops, err
}

// failoverResolver is the serving path's resolver as cluster.New wires
// it: the epoch-cached table router first, the state walk when a table
// is incomplete mid-churn. (The facade's own copy is unexported.)
type failoverResolver struct {
	cache     *routing.Cache
	walk      routing.Walker
	fallbacks *atomic.Int64
}

func (r failoverResolver) Resolve(from, key ident.ID) (ident.ID, int, error) {
	if owner, hops, err := r.cache.Resolve(from, key); err == nil {
		return owner, hops, nil
	}
	r.fallbacks.Add(1)
	return r.walk.Resolve(from, key)
}

// frameLog keeps the frames the seed's connections carried, for the
// codec replay.
type frameLog struct {
	mu     sync.Mutex
	frames []wire.Frame
}

func (l *frameLog) add(f wire.Frame) {
	l.mu.Lock()
	l.frames = append(l.frames, f)
	l.mu.Unlock()
}

// tracedTransport wraps a wire.Transport so every connection and
// listener it hands out is traced.
type tracedTransport struct {
	inner wire.Transport
	rec   *recorder
	unit  int
	log   *frameLog // seed-side frames
}

func (t *tracedTransport) Dial(addr string) (wire.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: t.rec, unit: t.unit, side: "worker"}, nil
}

func (t *tracedTransport) Listen(addr string) (wire.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: ln, t: t}, nil
}

type tracedListener struct {
	wire.Listener
	t *tracedTransport
}

func (l *tracedListener) Accept() (wire.Conn, error) {
	id := l.t.rec.begin("wire.accept", 0, l.t.unit)
	c, err := l.Listener.Accept()
	l.t.rec.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.t.rec, unit: l.t.unit, side: "seed", log: l.t.log}, nil
}

// tracedConn spans every Send and Recv. Seed-side connections (the
// ones a listener accepted) also log their frames; a round frame's
// number is noted on the span so round boundaries can be read back
// from the trace.
type tracedConn struct {
	wire.Conn
	rec  *recorder
	unit int
	side string
	log  *frameLog
}

func roundOf(f wire.Frame) int {
	if rf, ok := f.(*wire.RoundFrame); ok {
		return rf.Round
	}
	return 0
}

func (c *tracedConn) Send(f wire.Frame) error {
	id := c.rec.begin("wire."+c.side+".send", 0, c.unit)
	err := c.Conn.Send(f)
	c.rec.end(id)
	c.rec.tagRound(id, roundOf(f))
	if c.log != nil && err == nil {
		c.log.add(f)
	}
	return err
}

func (c *tracedConn) Recv() (wire.Frame, error) {
	id := c.rec.begin("wire."+c.side+".recv", 0, c.unit)
	f, err := c.Conn.Recv()
	c.rec.end(id)
	if err == nil {
		c.rec.tagRound(id, roundOf(f))
		if c.log != nil {
			c.log.add(f)
		}
	}
	return f, err
}
