package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/ref"
)

func msg(toOwner uint64, toLvl int, kind graph.Kind, addOwner uint64, addLvl int) rechord.Message {
	return rechord.Message{
		To:   ref.Virtual(ident.ID(toOwner), toLvl),
		Kind: kind,
		Add:  ref.Virtual(ident.ID(addOwner), addLvl),
	}
}

// bucket is a bucket update from one peer to another carrying msgs as
// records; every message must address to.
func bucket(from, to uint64, msgs ...rechord.Message) rechord.BucketUpdate {
	u := rechord.BucketUpdate{From: ident.ID(from), To: ident.ID(to)}
	for _, m := range msgs {
		u.Recs = append(u.Recs, rechord.PackRecord(m))
	}
	return u
}

// richRound builds a frame touching every encodable field: repeated
// identifiers (symbol-table hits), all view-flag combinations, empty
// and non-empty message lists.
func richRound() *RoundFrame {
	return &RoundFrame{
		Round:   7,
		Changed: true,
		Effects: rechord.Effects{
			Buckets: []rechord.BucketUpdate{
				bucket(0x1111, 0x2222,
					msg(0x2222, 0, graph.Ring, 0x3333, 2),
					msg(0x2222, 1, graph.Connection, 0x1111, 0),
				),
				bucket(0x3333, 0x1111), // bucket deletion
			},
			OneShots: []rechord.OneShot{
				{To: 0x2222, Msgs: []rechord.Message{msg(0x1111, 3, graph.Unmarked, 0x4444, 0)}},
			},
			Publishes: []rechord.PeerPublish{
				{Owner: 0x1111, Views: []rechord.PublishedView{
					{}, // neither side set
					{RL: ref.Virtual(0x2222, 1), HasRL: true},
					{RR: ref.Virtual(0x3333, 2), HasRR: true},
					{RL: ref.Virtual(0x4444, 3), HasRL: true,
						RR: ref.Virtual(0x1111, 3), HasRR: true},
				}},
				{Owner: 0x4444, Views: []rechord.PublishedView{{}}},
			},
		},
	}
}

// leanRound has fewer buckets, shorter message lists and fewer views
// than richRound: decoded after it on the same decoder, whose round
// storage is reused, none of richRound's content may show through.
func leanRound() *RoundFrame {
	return &RoundFrame{
		Round: 8,
		Effects: rechord.Effects{
			Buckets: []rechord.BucketUpdate{
				bucket(0x3333, 0x2222, msg(0x2222, 0, graph.Ring, 0x1111, 1)),
			},
			Publishes: []rechord.PeerPublish{
				{Owner: 0x2222, Views: []rechord.PublishedView{{RL: ref.Real(0x1111), HasRL: true}}},
			},
		},
	}
}

// TestFrameRoundTrip: every frame kind decodes to itself, and a
// decoder's reused round storage does not leak from one round into the
// next (rich, lean, empty, rich again); empty lists decode as nil.
func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		&Hello{Rank: 3, Procs: 4},
		richRound(),
		leanRound(),
		&RoundFrame{Round: 9, Done: true}, // empty share
		richRound(),
		&Fin{Fingerprint: 0xDEADBEEFCAFE0123, Peers: 12, Rounds: 97},
	}
	var met obs.WireMetrics
	var buf bytes.Buffer
	enc := NewEncoder(&buf, &met)
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatalf("encode %T: %v", f, err)
		}
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()), &met)
	for i, want := range frames {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d mismatch:\n got  %#v\n want %#v", i, got, want)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want clean io.EOF after last frame, got %v", err)
	}
	if got, want := met.FramesSent.Value(), uint64(len(frames)); got != want {
		t.Fatalf("FramesSent = %d, want %d", got, want)
	}
	if met.FramesRecv.Value() != met.FramesSent.Value() {
		t.Fatalf("FramesRecv = %d != FramesSent = %d", met.FramesRecv.Value(), met.FramesSent.Value())
	}
	// Sent counts preamble + length prefixes + payloads; recv counts
	// payloads only.
	if met.BytesRecv.Value() == 0 || met.BytesSent.Value() <= met.BytesRecv.Value() {
		t.Fatalf("byte counters inconsistent: sent=%d recv=%d", met.BytesSent.Value(), met.BytesRecv.Value())
	}
}

// TestSymbolTableWarm pins the core codec property: an identifier costs
// 9 bytes once and 1-3 bytes ever after, per connection direction.
func TestSymbolTableWarm(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, nil)
	if err := enc.Encode(richRound()); err != nil {
		t.Fatal(err)
	}
	cold := buf.Len()
	if err := enc.Encode(richRound()); err != nil {
		t.Fatal(err)
	}
	warm := buf.Len() - cold
	// 4 distinct identifiers, each saving 8 literal bytes on the warm
	// frame (cold also carries the 4-byte preamble).
	if warm >= cold-4 {
		t.Fatalf("warm frame (%d bytes) not smaller than cold (%d)", warm, cold-4)
	}
	if got := len(enc.sym.idx); got != 4 {
		t.Fatalf("interned %d symbols, want 4", got)
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()), nil)
	for i := 0; i < 2; i++ {
		f, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, Frame(richRound())) {
			t.Fatalf("decode %d: frame mismatch", i)
		}
	}
}

// TestDecodeTruncation feeds every strict prefix of a valid two-frame
// stream to a fresh decoder: each must yield a prefix of the full
// decode and then either a clean io.EOF (frame boundary) or an error —
// never a panic, never a phantom frame.
func TestDecodeTruncation(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, nil)
	if err := enc.Encode(richRound()); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&Fin{Fingerprint: 1, Peers: 2, Rounds: 3}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]), nil)
		frames := 0
		for {
			f, err := dec.Decode()
			if err == io.EOF {
				break // clean boundary — fine for prefixes ending between frames
			}
			if err != nil {
				break
			}
			if f == nil {
				t.Fatalf("cut %d: nil frame without error", cut)
			}
			frames++
			if frames > 2 {
				t.Fatalf("cut %d: decoded more frames than were encoded", cut)
			}
		}
	}
}

func TestDecodeRejectsHostileInput(t *testing.T) {
	// A valid one-frame stream to mutate.
	var buf bytes.Buffer
	if err := NewEncoder(&buf, nil).Encode(&Hello{Rank: 1, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mustReject := func(name string, b []byte) {
		t.Helper()
		dec := NewDecoder(bytes.NewReader(b), nil)
		var err error
		for i := 0; i < 4 && err == nil; i++ {
			_, err = dec.Decode()
		}
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: want ErrMalformed, got %v", name, err)
		}
	}

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	mustReject("bad magic", badMagic)

	badVersion := append([]byte(nil), valid...)
	badVersion[3] = Version + 1
	mustReject("unknown version", badVersion)

	empty := []byte{magic0, magic1, magic2, Version, 0}
	mustReject("empty frame", empty)

	oversize := binary.AppendUvarint([]byte{magic0, magic1, magic2, Version}, MaxFrame+1)
	mustReject("oversize length", oversize)

	unknownKind := []byte{magic0, magic1, magic2, Version, 1, 99}
	mustReject("unknown frame kind", unknownKind)

	trailing := append([]byte(nil), valid...)
	// Grow the declared length by one and append a junk byte: parse
	// succeeds but leaves a trailing byte.
	trailing[4]++
	trailing = append(trailing, 0xFF)
	mustReject("trailing bytes", trailing)

	// A round frame whose first bucket's From uses symbol index 1 with
	// an empty table.
	body := []byte{frameRound}
	body = binary.AppendUvarint(body, 1) // round
	body = append(body, 0)               // flags
	body = binary.AppendUvarint(body, 1) // bucket count
	body = binary.AppendUvarint(body, 1) // symbol tag 1 -> empty table
	frame := binary.AppendUvarint([]byte{magic0, magic1, magic2, Version}, uint64(len(body)))
	mustReject("symbol index out of range", append(frame, body...))

	// A bucket message addressed to a peer other than the update's
	// recipient: a record keeps no recipient, so it has no place in the
	// update. The same frame addressed to the recipient decodes.
	bucketFrame := func(msgTo uint64) []byte {
		var sw SymWriter
		body := []byte{frameRound}
		body = binary.AppendUvarint(body, 1) // round
		body = append(body, 0)               // flags
		body = binary.AppendUvarint(body, 1) // bucket count
		body = sw.AppendID(body, 0x1111)
		body = sw.AppendID(body, 0x2222)
		body = binary.AppendUvarint(body, 1) // message count
		body = AppendMessage(body, &sw, msg(msgTo, 0, graph.Ring, 0x3333, 0))
		body = binary.AppendUvarint(body, 0) // one-shot count
		body = binary.AppendUvarint(body, 0) // publish count
		return append(binary.AppendUvarint([]byte{magic0, magic1, magic2, Version}, uint64(len(body))), body...)
	}
	if got, err := NewDecoder(bytes.NewReader(bucketFrame(0x2222)), nil).Decode(); err != nil ||
		!reflect.DeepEqual(got.(*RoundFrame).Buckets, []rechord.BucketUpdate{bucket(0x1111, 0x2222, msg(0x2222, 0, graph.Ring, 0x3333, 0))}) {
		t.Fatalf("bucket to its recipient: decoded %v, %v", got, err)
	}
	mustReject("bucket message addressed to another peer", bucketFrame(0x4444))

	// A publish without its level-0 view: every live peer publishes at
	// least level 0, and the view count is the stub's level span.
	buf.Reset()
	noViews := &RoundFrame{Round: 1, Effects: rechord.Effects{
		Publishes: []rechord.PeerPublish{{Owner: 0x4444}},
	}}
	if err := NewEncoder(&buf, nil).Encode(noViews); err != nil {
		t.Fatal(err)
	}
	mustReject("publish without views", buf.Bytes())

	// A reference level past ref.MaxWireLevel, the largest a reference
	// has: frames whose only difference is one message's Add level (63
	// against the largest valid one) locate its byte, which then carries
	// the first invalid level.
	levelFrame := func(lvl int) []byte {
		var b bytes.Buffer
		f := &RoundFrame{Round: 1, Effects: rechord.Effects{
			OneShots: []rechord.OneShot{{To: 0x2222, Msgs: []rechord.Message{msg(0x2222, 1, graph.Unmarked, 0x3333, lvl)}}},
		}}
		if err := NewEncoder(&b, nil).Encode(f); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	top, below := levelFrame(ref.MaxWireLevel), levelFrame(ref.MaxWireLevel-1)
	at := -1
	for i := range top {
		if top[i] != below[i] {
			at = i
		}
	}
	if len(top) != len(below) || at < 0 || top[at] != ref.MaxWireLevel {
		t.Fatalf("level byte not found: %x vs %x", top, below)
	}
	if got, err := NewDecoder(bytes.NewReader(top), nil).Decode(); err != nil ||
		got.(*RoundFrame).Effects.OneShots[0].Msgs[0].Add != ref.Virtual(0x3333, ref.MaxWireLevel) {
		t.Fatalf("level %d: decoded %v, %v", ref.MaxWireLevel, got, err)
	}
	top[at] = ref.MaxWireLevel + 1
	mustReject("reference level beyond MaxWireLevel", top)
}
