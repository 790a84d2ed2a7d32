// Package wire is the codec + transport layer beneath the scheduler:
// the piece that turns the partitioned engine (rechord.Partition) into
// a cluster of real processes.
//
// The codec is a compact, allocation-conscious binary encoding for
// references, one-shot messages and standing-bucket updates. Each
// connection direction carries a symbol table mapping ident.ID to
// dense indices in first-mention order: the first time an identifier
// appears it ships as a tag byte 0 plus the 8-byte big-endian literal
// (and implicitly receives the next index); every later mention is a
// single uvarint (1-3 bytes for the first ~2M symbols). Streams open
// with a versioned preamble and carry uvarint length-delimited frames.
//
// The decoder is strict on purpose: a frame that is truncated, larger
// than MaxFrame, of unknown version or kind, with out-of-range levels,
// edge kinds or counts, or with trailing bytes, is an error — never a
// guess and never a panic. Every byte a peer sends sizes allocations
// and indexes tables on the receiving side, so anything not provably
// well-formed is rejected before it is trusted (FuzzDecodeHostile
// pins this).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
)

// Stream preamble: three magic bytes and a version byte. A reader
// facing a different version fails fast instead of misparsing.
const (
	magic0, magic1, magic2 = 'R', 'C', 'W'

	// Version is the codec version this package speaks; it moves with
	// every change to the frame layout.
	Version = 2
)

// MaxFrame bounds one frame's encoded payload. The decoder rejects a
// larger length prefix before allocating anything; the cap is far
// above any real round frame (a full publish of a 100k-peer partition
// fits) while keeping a hostile length prefix harmless.
const MaxFrame = 4 << 20

// ErrMalformed is the strict decoder's rejection class; every decode
// error wraps it.
var ErrMalformed = errors.New("wire: malformed input")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// SymWriter is the sending half of a connection's symbol table. The
// zero value is ready to use.
type SymWriter struct {
	idx      map[ident.ID]uint32
	interned uint64
}

// AppendID appends the identifier's symbol encoding to dst: uvarint
// index+1 for a known identifier, tag 0 plus the 8-byte literal for a
// first mention (which also assigns the next index).
func (s *SymWriter) AppendID(dst []byte, id ident.ID) []byte {
	if k, ok := s.idx[id]; ok {
		return binary.AppendUvarint(dst, uint64(k)+1)
	}
	if s.idx == nil {
		s.idx = make(map[ident.ID]uint32)
	}
	s.idx[id] = uint32(len(s.idx))
	s.interned++
	dst = append(dst, 0)
	return ident.AppendBytes(dst, id)
}

// Interned returns the number of identifiers this table has assigned.
func (s *SymWriter) Interned() uint64 { return s.interned }

// SymReader is the receiving half of a connection's symbol table. The
// zero value is ready to use.
type SymReader struct {
	tab []ident.ID
}

// ReadID decodes one symbol-encoded identifier from the front of b,
// returning the identifier and the remaining bytes.
func (s *SymReader) ReadID(b []byte) (ident.ID, []byte, error) {
	tag, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, malformed("bad symbol tag")
	}
	b = b[n:]
	if tag == 0 {
		id, ok := ident.FromBytes(b)
		if !ok {
			return 0, nil, malformed("truncated identifier literal")
		}
		s.tab = append(s.tab, id)
		return id, b[8:], nil
	}
	if tag > uint64(len(s.tab)) {
		return 0, nil, malformed("symbol index %d beyond table size %d", tag, len(s.tab))
	}
	return s.tab[tag-1], b, nil
}

// AppendRef appends a reference: the owner through the symbol table,
// then the level as a uvarint (at most ref.MaxWireLevel, the largest a
// reference has).
func AppendRef(dst []byte, s *SymWriter, r ref.Ref) []byte {
	dst = s.AppendID(dst, r.Owner)
	return binary.AppendUvarint(dst, uint64(r.Level()))
}

// ReadRef decodes one reference from the front of b.
func ReadRef(b []byte, s *SymReader) (ref.Ref, []byte, error) {
	owner, b, err := s.ReadID(b)
	if err != nil {
		return ref.Ref{}, nil, err
	}
	lvl, n := binary.Uvarint(b)
	if n <= 0 || lvl > ref.MaxWireLevel {
		return ref.Ref{}, nil, malformed("bad ref level")
	}
	return ref.Virtual(owner, int(lvl)), b[n:], nil
}

// maxKind is the highest valid edge marking (unmarked, ring,
// connection).
const maxKind = 2

// AppendMessage appends one protocol message: destination ref, edge
// kind byte, introduced ref. With a warm symbol table this is three
// uvarints and a byte — and zero allocations when dst has capacity
// (BenchmarkEncodeMessage pins it).
func AppendMessage(dst []byte, s *SymWriter, m rechord.Message) []byte {
	dst = AppendRef(dst, s, m.To)
	if m.Kind < 0 || m.Kind > maxKind {
		panic(fmt.Sprintf("wire: encoding invalid message kind %d", m.Kind))
	}
	dst = append(dst, byte(m.Kind))
	return AppendRef(dst, s, m.Add)
}

// ReadMessage decodes one protocol message from the front of b.
func ReadMessage(b []byte, s *SymReader) (rechord.Message, []byte, error) {
	var m rechord.Message
	var err error
	m.To, b, err = ReadRef(b, s)
	if err != nil {
		return m, nil, err
	}
	if len(b) == 0 || b[0] > maxKind {
		return m, nil, malformed("bad message kind")
	}
	m.Kind, b = graph.Kind(b[0]), b[1:]
	m.Add, b, err = ReadRef(b, s)
	if err != nil {
		return m, nil, err
	}
	return m, b, nil
}

// checkCount validates an element count read off the wire against the
// bytes that remain: n elements of at least min bytes each cannot
// outnumber the payload, so a hostile count is rejected before it
// sizes an allocation.
func checkCount(n uint64, min int, rem []byte) error {
	if n > uint64(len(rem))/uint64(min) {
		return malformed("count %d exceeds remaining payload", n)
	}
	return nil
}
