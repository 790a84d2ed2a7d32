package obs

// WireMetrics counts the codec + transport layer's work (see
// internal/wire): frames and bytes in each direction and the payload
// items carried. Same hot-path contract as the rest of the package —
// one atomic add per event, no allocation — and the zero value is
// ready to use, so a nil-checked optional attachment costs nothing
// when absent.
type WireMetrics struct {
	// FramesSent/BytesSent count encoded frames and their on-wire
	// bytes (length prefix included); FramesRecv/BytesRecv the
	// decoded side.
	FramesSent Counter
	BytesSent  Counter
	FramesRecv Counter
	BytesRecv  Counter

	// BucketUpdates, OneShots and Publishes count the effect payloads
	// encoded into round frames (sender side).
	BucketUpdates Counter
	OneShots      Counter
	Publishes     Counter
}

// Snapshot captures the current counter values.
func (w *WireMetrics) Snapshot() WireSnapshot {
	if w == nil {
		return WireSnapshot{}
	}
	return WireSnapshot{
		FramesSent:    w.FramesSent.Value(),
		BytesSent:     w.BytesSent.Value(),
		FramesRecv:    w.FramesRecv.Value(),
		BytesRecv:     w.BytesRecv.Value(),
		BucketUpdates: w.BucketUpdates.Value(),
		OneShots:      w.OneShots.Value(),
		Publishes:     w.Publishes.Value(),
	}
}

// WireSnapshot is the wire layer's slice of a metrics snapshot.
type WireSnapshot struct {
	FramesSent    uint64 `json:"frames_sent"`
	BytesSent     uint64 `json:"bytes_sent"`
	FramesRecv    uint64 `json:"frames_recv"`
	BytesRecv     uint64 `json:"bytes_recv"`
	BucketUpdates uint64 `json:"bucket_updates"`
	OneShots      uint64 `json:"one_shots"`
	Publishes     uint64 `json:"publishes"`
}
