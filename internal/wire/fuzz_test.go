package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
)

// buildArbitraryRound derives a bounded-but-arbitrary RoundFrame from
// fuzz bytes: every draw is a deterministic function of the input, so
// the fuzzer explores frame shapes (counts, flag combinations, symbol
// reuse) rather than raw bytes.
func buildArbitraryRound(data []byte) *RoundFrame {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	id := func() ident.ID {
		return ident.ID(uint64(next())<<8 | uint64(next()))
	}
	rf := func() ref.Ref {
		return ref.Virtual(id(), int(next())%(ref.MaxWireLevel+1))
	}
	msgs := func() []rechord.Message {
		n := int(next()) % 4
		var ms []rechord.Message
		for i := 0; i < n; i++ {
			ms = append(ms, rechord.Message{To: rf(), Kind: graph.Kind(next() % 3), Add: rf()})
		}
		return ms
	}
	f := &RoundFrame{
		Round:   int(next()),
		Changed: next()&1 != 0,
		Done:    next()&1 != 0,
	}
	for i, n := 0, int(next())%4; i < n; i++ {
		f.Buckets = append(f.Buckets, rechord.BucketUpdate{From: id(), To: id(), Msgs: msgs()})
	}
	for i, n := 0, int(next())%4; i < n; i++ {
		f.OneShots = append(f.OneShots, rechord.OneShot{To: id(), Msgs: msgs()})
	}
	for i, n := 0, int(next())%3; i < n; i++ {
		p := rechord.PeerPublish{Owner: id()}
		for j, vn := 0, 1+int(next())%4; j < vn; j++ { // level 0 is always published
			var v rechord.PublishedView
			if next()&1 != 0 {
				v.HasRL, v.RL = true, rf()
			}
			if next()&1 != 0 {
				v.HasRR, v.RR = true, rf()
			}
			p.Views = append(p.Views, v)
		}
		f.Publishes = append(f.Publishes, p)
	}
	return f
}

// FuzzFrameRoundTrip: any frame the encoder can produce must decode
// back to itself — including a second copy over the same (now warm)
// symbol tables.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 0, 2, 0x11, 0x22, 3, 0x33, 0x44, 1})
	f.Add(bytes.Repeat([]byte{0xA5, 3, 1}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := buildArbitraryRound(data)
		var buf bytes.Buffer
		enc := NewEncoder(&buf, nil)
		if err := enc.Encode(want); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := enc.Encode(want); err != nil {
			t.Fatalf("warm encode: %v", err)
		}
		dec := NewDecoder(bytes.NewReader(buf.Bytes()), nil)
		for i := 0; i < 2; i++ {
			got, err := dec.Decode()
			if err != nil {
				t.Fatalf("decode %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, Frame(want)) {
				t.Fatalf("decode %d mismatch:\n got  %#v\n want %#v", i, got, want)
			}
		}
		if _, err := dec.Decode(); err != io.EOF {
			t.Fatalf("want io.EOF at end, got %v", err)
		}
	})
}

// FuzzDecodeHostile: adversarial bytes must never panic the decoder or
// make it allocate beyond what the input length justifies. Each input
// is tried bare and with a valid preamble prepended (so the fuzzer
// reaches the frame parser without having to guess the magic).
func FuzzDecodeHostile(f *testing.F) {
	var seed bytes.Buffer
	enc := NewEncoder(&seed, nil)
	_ = enc.Encode(&Hello{Rank: 1, Procs: 4})
	_ = enc.Encode(richRound())
	_ = enc.Encode(&Fin{Fingerprint: 42, Peers: 7, Rounds: 9})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, magic2, Version})
	// A huge length prefix: must be rejected before any allocation.
	f.Add(binary.AppendUvarint([]byte{magic0, magic1, magic2, Version}, 1<<40))
	// A round frame declaring 2^30 buckets in a 3-byte payload.
	hostile := []byte{magic0, magic1, magic2, Version}
	body := append([]byte{frameRound, 1, 0}, binary.AppendUvarint(nil, 1<<30)...)
	hostile = append(binary.AppendUvarint(hostile, uint64(len(body))), body...)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, stream := range [][]byte{
			data,
			append([]byte{magic0, magic1, magic2, Version}, data...),
		} {
			dec := NewDecoder(bytes.NewReader(stream), nil)
			for i := 0; i < 64; i++ {
				f, err := dec.Decode()
				if err != nil {
					break // any error is fine; panics and hangs are not
				}
				if f == nil {
					t.Fatal("nil frame without error")
				}
			}
		}
	})
}
