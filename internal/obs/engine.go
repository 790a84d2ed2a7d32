package obs

// NumRules is the number of protocol rules the engine instruments
// (Re-Chord rules 1-6).
const NumRules = 6

// RuleNames keys the per-rule firing counters in snapshots, in rule
// order: 1 virtual-nodes, 2 overlapping-neighborhood, 3
// closest-real-neighbor, 4 linearization, 5 ring-edges, 6
// connection-edges.
var RuleNames = [NumRules]string{
	"virtual_nodes",
	"overlapping_neighborhood",
	"closest_real_neighbor",
	"linearization",
	"ring_edges",
	"connection_edges",
}

// EngineMetrics is the round/async engine's counter set. One instance
// lives inside every rechord.Network (always on); the engine tallies
// into plain batch-local integers and flushes each counter with one
// atomic add per non-quiescent batch, so a quiescent Step costs
// exactly one atomic increment (Steps). The zero value is ready to
// use.
type EngineMetrics struct {
	// Steps counts every scheduler step, quiescent ones included
	// (synchronous rounds and asynchronous time steps alike).
	Steps Counter
	// Batches counts non-quiescent steps: steps whose frontier was
	// non-empty and that therefore ran the three-phase barrier.
	Batches Counter
	// Activated counts peer rule executions (frontier size summed over
	// batches).
	Activated Counter
	// Woken counts clean peers dirtied by the inverted dependency
	// index after a batch published changes.
	Woken Counter
	// Delivered counts messages applied at delivery time: one-shot
	// inbox entries plus standing-bucket messages read in phase 1.
	Delivered Counter
	// Settled / Unsettled count the per-peer settle decisions at the
	// barrier. A settled peer's run left its state as it found it and
	// consumed no one-shot input, so a re-run would reproduce its state
	// and output: it leaves the frontier, on the run that changed its
	// output if that was all that changed, under every scheduler. An
	// unsettled one stays dirty.
	Settled   Counter
	Unsettled Counter
	// EpochBumps counts routing-epoch invalidations published by
	// state-changing peers (what forces routing-table rebuilds).
	EpochBumps Counter
	// AsyncDeliveries counts delivery events fired by the asynchronous
	// scheduler (0 under the synchronous engine).
	AsyncDeliveries Counter
	// RuleFired counts protocol actions per rule, indexed like
	// RuleNames: messages sent by the rule, plus rule 1's virtual-node
	// creations/removals and rule 2's immediate edge handoffs.
	RuleFired [NumRules]Counter
	// Flow-storage gauges: the resident footprint of the shared flow
	// templates that back standing buckets. Set once per batch (or
	// churn operation) from the engine's serial accounting — never on
	// the per-message path. FlowTemplates is the number of live
	// templates; FlowResidentBytes their packed footprint;
	// FlowSharedBytes / FlowUniqueBytes classify the deep-copy
	// equivalent bytes of the standing buckets by whether they
	// reference a shared template or a private copy; the
	// FlowInstalls* pair counts bucket installs by the same split
	// (shared installs are the template hit rate's numerator).
	FlowTemplates      Gauge
	FlowResidentBytes  Gauge
	FlowSharedBytes    Gauge
	FlowUniqueBytes    Gauge
	FlowInstallsShared Gauge
	FlowInstallsCopied Gauge
	// Per-phase barrier wall-clock, in nanoseconds per batch. Deliver
	// is phase 1 (inbox/bucket application and reference purging),
	// Execute is phase 2 (the parallel rule run), Prepare is phase 3a
	// (the parallel view-publish and output/dependency diffing),
	// Reroute is phase 3b — the sharded bucket/index commit under the
	// synchronous engine, or the time spent inside a serial scheduler's
	// route callback — and Publish is the serial epilogue (settle
	// bookkeeping, change-set merge, dependent wakes). The ROADMAP's
	// "serial publish/reroute phase" is now the prepare+reroute pair,
	// parallel and measured.
	PhaseDeliver Hist
	PhaseExecute Hist
	PhasePrepare Hist
	PhasePublish Hist
	PhaseReroute Hist
}

// EngineSnapshot is the JSON form of EngineMetrics.
type EngineSnapshot struct {
	Steps           uint64                 `json:"steps"`
	QuiescentSteps  uint64                 `json:"quiescent_steps"`
	Batches         uint64                 `json:"batches"`
	Activated       uint64                 `json:"activated"`
	Woken           uint64                 `json:"woken"`
	Delivered       uint64                 `json:"delivered"`
	Settled         uint64                 `json:"settled"`
	Unsettled       uint64                 `json:"unsettled"`
	EpochBumps      uint64                 `json:"epoch_bumps"`
	AsyncDeliveries uint64                 `json:"async_deliveries"`
	RuleFired       map[string]uint64      `json:"rule_fired"`
	PhaseNS         map[string]HistSummary `json:"phase_ns"`
	// Flow-storage snapshot (see the FlowTemplates gauge group).
	FlowTemplates      int64   `json:"flow_templates"`
	FlowResidentBytes  int64   `json:"flow_resident_bytes"`
	FlowSharedBytes    int64   `json:"flow_shared_bytes"`
	FlowUniqueBytes    int64   `json:"flow_unique_bytes"`
	FlowInstallsShared int64   `json:"flow_installs_shared"`
	FlowInstallsCopied int64   `json:"flow_installs_copied"`
	FlowTemplateHit    float64 `json:"flow_template_hit_rate"`
}

// Snapshot digests the counters. Safe to call concurrently with the
// engine stepping; counters are read individually, so the snapshot is
// per-field atomic, not a global cut.
func (m *EngineMetrics) Snapshot() EngineSnapshot {
	steps := m.Steps.Value()
	batches := m.Batches.Value()
	s := EngineSnapshot{
		Steps:           steps,
		QuiescentSteps:  steps - batches,
		Batches:         batches,
		Activated:       m.Activated.Value(),
		Woken:           m.Woken.Value(),
		Delivered:       m.Delivered.Value(),
		Settled:         m.Settled.Value(),
		Unsettled:       m.Unsettled.Value(),
		EpochBumps:      m.EpochBumps.Value(),
		AsyncDeliveries: m.AsyncDeliveries.Value(),
		RuleFired:       make(map[string]uint64, NumRules),
		PhaseNS:         make(map[string]HistSummary, 5),
	}
	for i := range m.RuleFired {
		s.RuleFired[RuleNames[i]] = m.RuleFired[i].Value()
	}
	s.PhaseNS["deliver"] = m.PhaseDeliver.Summary()
	s.PhaseNS["execute"] = m.PhaseExecute.Summary()
	s.PhaseNS["prepare"] = m.PhasePrepare.Summary()
	s.PhaseNS["publish"] = m.PhasePublish.Summary()
	s.PhaseNS["reroute"] = m.PhaseReroute.Summary()
	s.FlowTemplates = m.FlowTemplates.Value()
	s.FlowResidentBytes = m.FlowResidentBytes.Value()
	s.FlowSharedBytes = m.FlowSharedBytes.Value()
	s.FlowUniqueBytes = m.FlowUniqueBytes.Value()
	s.FlowInstallsShared = m.FlowInstallsShared.Value()
	s.FlowInstallsCopied = m.FlowInstallsCopied.Value()
	if total := s.FlowInstallsShared + s.FlowInstallsCopied; total > 0 {
		s.FlowTemplateHit = float64(s.FlowInstallsShared) / float64(total)
	}
	return s
}
