package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanID names a span within one recorder; 0 is "no span" (a root's
// parent).
type spanID int32

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's public interface.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Name   string `json:"name"`
	Unit   int    `json:"unit"`            // rep / event / chunk the span belongs to
	Round  int    `json:"round,omitempty"` // wire spans: the round frame's round
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Several
// goroutines record at once on the wire workload (one per rank), so
// begin and end lock.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent spanID, unit int) spanID {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := spanID(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Unit: unit, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id spanID) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// tagRound notes the protocol round a wire span's frame carried.
func (r *recorder) tagRound(id spanID, round int) {
	r.mu.Lock()
	r.spans[id-1].Round = round
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the duration in nanoseconds of every span with the
// name, in recording order.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval its child spans cover. Children may overlap one another
// (concurrent ranks) or stick out of the parent (a child ended after
// the parent was closed); the covered part is the union of the child
// intervals clipped to the parent.
func selfTimes(spans []span) map[spanID]int64 {
	children := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[spanID]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		reach := s.Start // everything before reach is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfDurations is durations over self time (self from selfTimes).
func selfDurations(spans []span, self map[spanID]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// writeTrace writes the spans as JSON lines.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
