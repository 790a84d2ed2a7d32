package wire

import (
	"bufio"
	"encoding/binary"
	"io"

	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/ref"
)

// Frame kinds. A frame is one length-delimited unit on a stream: a
// kind byte followed by the kind's body.
const (
	frameHello byte = 1
	frameRound byte = 2
	frameFin   byte = 3
)

// Frame is one protocol unit: Hello (bootstrap), RoundFrame (one
// global round's effects), or Fin (final fingerprint).
type Frame interface{ frame() }

// Hello introduces a worker to the seed process: its rank and the
// cluster size it believes in (cross-checked, so mismatched launches
// fail fast instead of deadlocking the barrier).
type Hello struct {
	Rank  int
	Procs int
}

// RoundFrame carries one process's cross-partition effects for one
// global round — or, sent by the seed, one rank's share of every
// process's effects plus the cluster-wide verdicts.
type RoundFrame struct {
	Round   int
	Changed bool // this round changed state somewhere (share: anywhere)
	Done    bool // share only: the cluster is quiescent, stop after applying

	rechord.Effects
}

// Fin closes a worker's participation: its local fingerprint and
// hosted-peer count, XOR/sum-combined by the seed.
type Fin struct {
	Fingerprint uint64
	Peers       int
	Rounds      int
}

func (*Hello) frame()      {}
func (*RoundFrame) frame() {}
func (*Fin) frame()        {}

// Round frame body flags.
const (
	flagChanged byte = 1 << 0
	flagDone    byte = 1 << 1
)

// Encoder writes frames to one stream direction: preamble once, then
// uvarint length-delimited frame payloads, with the connection's
// symbol table threaded through every identifier.
type Encoder struct {
	w           io.Writer
	sym         SymWriter
	buf         []byte
	met         *obs.WireMetrics
	wroteHeader bool
}

// NewEncoder returns an encoder writing to w. met may be nil.
func NewEncoder(w io.Writer, met *obs.WireMetrics) *Encoder {
	return &Encoder{w: w, met: met}
}

// Encode writes one frame.
func (e *Encoder) Encode(f Frame) error {
	body := e.buf[:0]
	switch f := f.(type) {
	case *Hello:
		body = append(body, frameHello)
		body = binary.AppendUvarint(body, uint64(f.Rank))
		body = binary.AppendUvarint(body, uint64(f.Procs))
	case *RoundFrame:
		body = e.appendRound(body, f)
	case *Fin:
		body = append(body, frameFin)
		body = binary.BigEndian.AppendUint64(body, f.Fingerprint)
		body = binary.AppendUvarint(body, uint64(f.Peers))
		body = binary.AppendUvarint(body, uint64(f.Rounds))
	default:
		panic("wire: unknown frame type")
	}
	e.buf = body

	var hdr [12]byte
	n := 0
	if !e.wroteHeader {
		hdr[0], hdr[1], hdr[2], hdr[3] = magic0, magic1, magic2, Version
		n = 4
		e.wroteHeader = true
	}
	pfx := binary.PutUvarint(hdr[n:], uint64(len(body)))
	if _, err := e.w.Write(hdr[:n+pfx]); err != nil {
		return err
	}
	if _, err := e.w.Write(body); err != nil {
		return err
	}
	if e.met != nil {
		e.met.FramesSent.Inc()
		e.met.BytesSent.Add(uint64(n + pfx + len(body)))
	}
	return nil
}

func (e *Encoder) appendRound(body []byte, f *RoundFrame) []byte {
	s := &e.sym
	body = append(body, frameRound)
	body = binary.AppendUvarint(body, uint64(f.Round))
	var flags byte
	if f.Changed {
		flags |= flagChanged
	}
	if f.Done {
		flags |= flagDone
	}
	body = append(body, flags)

	body = binary.AppendUvarint(body, uint64(len(f.Buckets)))
	for _, u := range f.Buckets {
		body = s.AppendID(body, u.From)
		body = s.AppendID(body, u.To)
		body = binary.AppendUvarint(body, uint64(len(u.Msgs)))
		for _, m := range u.Msgs {
			body = AppendMessage(body, s, m)
		}
	}
	body = binary.AppendUvarint(body, uint64(len(f.OneShots)))
	for _, u := range f.OneShots {
		body = s.AppendID(body, u.To)
		body = binary.AppendUvarint(body, uint64(len(u.Msgs)))
		for _, m := range u.Msgs {
			body = AppendMessage(body, s, m)
		}
	}
	body = binary.AppendUvarint(body, uint64(len(f.Publishes)))
	for _, p := range f.Publishes {
		body = s.AppendID(body, p.Owner)
		body = binary.AppendUvarint(body, uint64(len(p.Views)))
		for _, v := range p.Views {
			var vf byte
			if v.HasRL {
				vf |= 1
			}
			if v.HasRR {
				vf |= 2
			}
			body = append(body, vf)
			if v.HasRL {
				body = AppendRef(body, s, v.RL)
			}
			if v.HasRR {
				body = AppendRef(body, s, v.RR)
			}
		}
	}
	if e.met != nil {
		e.met.BucketUpdates.Add(uint64(len(f.Buckets)))
		e.met.OneShots.Add(uint64(len(f.OneShots)))
		e.met.Publishes.Add(uint64(len(f.Publishes)))
	}
	return body
}

// Decoder reads frames from one stream direction, strictly. Round
// frames are decoded into storage the decoder keeps and reuses, so a
// warm decoder allocates nothing per round.
type Decoder struct {
	r          *bufio.Reader
	sym        SymReader
	buf        []byte
	met        *obs.WireMetrics
	readHeader bool

	round RoundFrame // the last decoded round frame
	store struct {   // backing arrays of round's slices
		buckets  []rechord.BucketUpdate
		oneShots []rechord.OneShot
		pubs     []rechord.PeerPublish
		msgs     []rechord.Message
		views    []rechord.PublishedView
	}
}

// NewDecoder returns a decoder reading from r. met may be nil.
func NewDecoder(r io.Reader, met *obs.WireMetrics) *Decoder {
	return &Decoder{r: bufio.NewReader(r), met: met}
}

// Decode reads the next frame. io.EOF is returned cleanly at a frame
// boundary; any malformed input wraps ErrMalformed. A returned
// *RoundFrame, and every slice in it, is valid until the next Decode,
// which reuses its storage; a caller that keeps a round frame longer
// must copy it.
func (d *Decoder) Decode() (Frame, error) {
	if !d.readHeader {
		var hdr [4]byte
		if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return nil, malformed("truncated preamble")
			}
			return nil, err
		}
		if hdr[0] != magic0 || hdr[1] != magic1 || hdr[2] != magic2 {
			return nil, malformed("bad magic %q", hdr[:3])
		}
		if hdr[3] != Version {
			return nil, malformed("unknown version %d (speaking %d)", hdr[3], Version)
		}
		d.readHeader = true
	}
	size, err := binary.ReadUvarint(d.r)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, malformed("truncated length prefix")
		}
		return nil, err // io.EOF: clean end of stream
	}
	if size == 0 {
		return nil, malformed("empty frame")
	}
	if size > MaxFrame {
		return nil, malformed("frame of %d bytes exceeds limit %d", size, MaxFrame)
	}
	if uint64(cap(d.buf)) < size {
		d.buf = make([]byte, size)
	}
	b := d.buf[:size]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return nil, malformed("truncated frame: %v", err)
	}
	f, rest, err := d.parseFrame(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, malformed("%d trailing bytes in frame", len(rest))
	}
	if d.met != nil {
		d.met.FramesRecv.Inc()
		d.met.BytesRecv.Add(size)
	}
	return f, nil
}

func (d *Decoder) parseFrame(b []byte) (Frame, []byte, error) {
	kind := b[0]
	b = b[1:]
	switch kind {
	case frameHello:
		rank, n := binary.Uvarint(b)
		if n <= 0 || rank > 1<<20 {
			return nil, nil, malformed("bad hello rank")
		}
		b = b[n:]
		procs, n := binary.Uvarint(b)
		if n <= 0 || procs > 1<<20 {
			return nil, nil, malformed("bad hello procs")
		}
		return &Hello{Rank: int(rank), Procs: int(procs)}, b[n:], nil
	case frameRound:
		return d.parseRound(b)
	case frameFin:
		if len(b) < 8 {
			return nil, nil, malformed("truncated fin")
		}
		fp := binary.BigEndian.Uint64(b)
		b = b[8:]
		peers, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, malformed("bad fin peers")
		}
		b = b[n:]
		rounds, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, malformed("bad fin rounds")
		}
		return &Fin{Fingerprint: fp, Peers: int(peers), Rounds: int(rounds)}, b[n:], nil
	default:
		return nil, nil, malformed("unknown frame kind %d", kind)
	}
}

func (d *Decoder) parseRound(b []byte) (Frame, []byte, error) {
	s := &d.sym
	round, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, malformed("bad round number")
	}
	b = b[n:]
	if len(b) == 0 {
		return nil, nil, malformed("missing round flags")
	}
	flags := b[0]
	if flags&^(flagChanged|flagDone) != 0 {
		return nil, nil, malformed("unknown round flags %#x", flags)
	}
	b = b[1:]
	st := &d.store
	st.buckets, st.oneShots, st.pubs = st.buckets[:0], st.oneShots[:0], st.pubs[:0]
	st.msgs, st.views = st.msgs[:0], st.views[:0]

	// readMsgs appends one message list to the message store and
	// returns its span, capped so an append by the caller cannot run
	// into the next list.
	readMsgs := func(b []byte) ([]rechord.Message, []byte, error) {
		cnt, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, malformed("bad message count")
		}
		b = b[n:]
		// A message is at least 5 bytes (two refs of >= 2 bytes, one
		// kind byte).
		if err := checkCount(cnt, 5, b); err != nil {
			return nil, nil, err
		}
		start := len(st.msgs)
		for i := uint64(0); i < cnt; i++ {
			var m rechord.Message
			var err error
			m, b, err = ReadMessage(b, s)
			if err != nil {
				return nil, nil, err
			}
			st.msgs = append(st.msgs, m)
		}
		return span(st.msgs, start), b, nil
	}

	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, malformed("bad bucket count")
	}
	b = b[n:]
	if err := checkCount(cnt, 3, b); err != nil {
		return nil, nil, err
	}
	for i := uint64(0); i < cnt; i++ {
		var u rechord.BucketUpdate
		var err error
		u.From, b, err = s.ReadID(b)
		if err != nil {
			return nil, nil, err
		}
		u.To, b, err = s.ReadID(b)
		if err != nil {
			return nil, nil, err
		}
		u.Msgs, b, err = readMsgs(b)
		if err != nil {
			return nil, nil, err
		}
		st.buckets = append(st.buckets, u)
	}

	cnt, n = binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, malformed("bad one-shot count")
	}
	b = b[n:]
	if err := checkCount(cnt, 2, b); err != nil {
		return nil, nil, err
	}
	for i := uint64(0); i < cnt; i++ {
		var u rechord.OneShot
		var err error
		u.To, b, err = s.ReadID(b)
		if err != nil {
			return nil, nil, err
		}
		u.Msgs, b, err = readMsgs(b)
		if err != nil {
			return nil, nil, err
		}
		st.oneShots = append(st.oneShots, u)
	}

	cnt, n = binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, malformed("bad publish count")
	}
	b = b[n:]
	if err := checkCount(cnt, 3, b); err != nil {
		return nil, nil, err
	}
	for i := uint64(0); i < cnt; i++ {
		var p rechord.PeerPublish
		var err error
		p.Owner, b, err = s.ReadID(b)
		if err != nil {
			return nil, nil, err
		}
		// One view per level 0..m: every live peer publishes level 0,
		// and the count is the level span the receiver resolves by.
		vcnt, n := binary.Uvarint(b)
		if n <= 0 || vcnt == 0 || vcnt > ref.MaxWireLevel+1 {
			return nil, nil, malformed("bad publish view count")
		}
		b = b[n:]
		if err := checkCount(vcnt, 1, b); err != nil {
			return nil, nil, err
		}
		start := len(st.views)
		for j := uint64(0); j < vcnt; j++ {
			if len(b) == 0 {
				return nil, nil, malformed("truncated view entry")
			}
			vf := b[0]
			if vf > 3 {
				return nil, nil, malformed("unknown view flags %#x", vf)
			}
			b = b[1:]
			var v rechord.PublishedView
			if vf&1 != 0 {
				v.HasRL = true
				v.RL, b, err = ReadRef(b, s)
				if err != nil {
					return nil, nil, err
				}
			}
			if vf&2 != 0 {
				v.HasRR = true
				v.RR, b, err = ReadRef(b, s)
				if err != nil {
					return nil, nil, err
				}
			}
			st.views = append(st.views, v)
		}
		p.Views = span(st.views, start)
		st.pubs = append(st.pubs, p)
	}
	d.round = RoundFrame{
		Round:   int(round),
		Changed: flags&flagChanged != 0,
		Done:    flags&flagDone != 0,
		Effects: rechord.Effects{
			Buckets:   span(st.buckets, 0),
			OneShots:  span(st.oneShots, 0),
			Publishes: span(st.pubs, 0),
		},
	}
	return &d.round, b, nil
}

// span returns s[start:] capped at its length, or nil when it is
// empty: a decoded empty list is nil, as the encoder's input may be.
func span[T any](s []T, start int) []T {
	if start == len(s) {
		return nil
	}
	return s[start:len(s):len(s)]
}
