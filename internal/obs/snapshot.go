package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// RoutingSnapshot is the routing layer's slice of a metrics snapshot:
// published-view effectiveness and the lookup-hop distribution (paper
// target: ~log n). Fallbacks is written only by bench/'s direct
// composition, whose private resolver still falls back to the state
// walk; the facade has no second path and reports 0.
type RoutingSnapshot struct {
	CacheHits          uint64      `json:"cache_hits"`
	CacheMisses        uint64      `json:"cache_misses"`
	CacheInvalidations uint64      `json:"cache_invalidations"`
	CacheEntries       int         `json:"cache_entries"`
	Fallbacks          int64       `json:"fallbacks"`
	LookupHops         HistSummary `json:"lookup_hops"`
}

// Snapshot is one structured cut across every instrumented layer —
// what cluster.Metrics returns, what /metrics serves, and what the
// largescale suites dump next to SCALE.json. It marshals to stable
// JSON and round-trips losslessly (pinned by TestSnapshotJSONRoundTrip).
type Snapshot struct {
	Engine        EngineSnapshot   `json:"engine"`
	Routing       RoutingSnapshot  `json:"routing"`
	Workload      WorkloadSnapshot `json:"workload"`
	Wire          WireSnapshot     `json:"wire"`
	EventsDropped uint64           `json:"events_dropped"`
}

// Record appends the labeled snapshot to the JSON object stored at
// path (read-modify-write, last writer per label wins), creating the
// file on first use. The file maps label -> Snapshot so one run can
// collect several rungs ("sync-n2048", "async-n8192", ...) into a
// single artifact.
func Record(path, label string, s Snapshot) error {
	all := map[string]Snapshot{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("parsing existing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	all[label] = s
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RecordEnv records the snapshot to the file named by the
// METRICS_JSON environment variable, or does nothing when unset —
// the same opt-in pattern as scaletable.RecordEnv/SCALE_JSON, so the
// largescale suites stay silent locally and publish in CI.
func RecordEnv(label string, s Snapshot) error {
	path := os.Getenv("METRICS_JSON")
	if path == "" {
		return nil
	}
	return Record(path, label, s)
}
