package wire

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
)

// The wire hot path is AppendMessage/ReadMessage with a warm symbol
// table: after a connection's first round, virtually every identifier
// is interned, so a message is three uvarints and a kind byte with
// zero heap traffic. The bench-diff gate enforces the allocation
// ceiling (-fail-allocs on these two benchmarks).

func benchMessage() rechord.Message {
	return rechord.Message{
		To:   ref.Virtual(ident.ID(0x1111_2222_3333_4444), 2),
		Kind: graph.Ring,
		Add:  ref.Virtual(ident.ID(0x5555_6666_7777_8888), 5),
	}
}

func BenchmarkEncodeMessage(b *testing.B) {
	m := benchMessage()
	var sw SymWriter
	buf := AppendMessage(nil, &sw, m) // warm the table and size the buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendMessage(buf[:0], &sw, m)
	}
	_ = buf
}

func BenchmarkDecodeMessage(b *testing.B) {
	m := benchMessage()
	var sw SymWriter
	cold := AppendMessage(nil, &sw, m) // literals: warms the reader below
	warm := AppendMessage(nil, &sw, m) // symbol references only

	var sr SymReader
	if _, _, err := ReadMessage(cold, &sr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadMessage(warm, &sr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChanCluster runs the bench's wire script shape — a random
// n=192 network with a join, a graceful leave and a crash at rounds 5,
// 10 and 15 — as 4 ranks over the in-process transport, end to end:
// replica builds, lockstep rounds, codec and the seed's route. rounds/op
// is the lockstep round count of one run.
func BenchmarkChanCluster(b *testing.B) {
	s := benchScript(b)
	b.ReportAllocs()
	rounds := 0
	for b.Loop() {
		rounds += runChanCluster(b, s, 4, nil, nil).Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
