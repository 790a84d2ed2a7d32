package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rechord"
	"repro/internal/topogen"
	"repro/internal/workload"
)

// Topology names accepted by WithTopology. "stable" (the default)
// builds the network already settled in the unique stable state; every
// other name seeds the corresponding adversarial initial state and
// leaves stabilization to the caller's Stabilize(ctx).
const (
	TopologyStable        = "stable"
	TopologyRandom        = "random"
	TopologyLine          = "line"
	TopologyStar          = "star"
	TopologyClique        = "clique"
	TopologyBridged       = "bridged"
	TopologyGarbage       = "garbage"
	TopologyLoopy         = "loopy"
	TopologyPreStabilized = "prestabilized"
)

// Key distributions accepted by WorkloadConfig.Distribution,
// re-exported from the workload engine.
const (
	DistUniform = workload.DistUniform
	DistZipf    = workload.DistZipf
	DistHotspot = workload.DistHotspot
)

// Topologies returns every topology name WithTopology accepts.
func Topologies() []string {
	return []string{
		TopologyStable, TopologyRandom, TopologyLine, TopologyStar,
		TopologyClique, TopologyBridged, TopologyGarbage, TopologyLoopy,
		TopologyPreStabilized,
	}
}

type config struct {
	size       int
	seed       int64
	topology   string
	workers    int
	async      bool
	asyncProb  float64
	asyncDelay DelayModel
}

func defaultConfig() config {
	return config{size: 32, seed: 1, topology: TopologyStable}
}

// Option configures a Cluster at construction time.
type Option func(*config)

// WithSize sets the number of peers (default 32).
func WithSize(n int) Option { return func(c *config) { c.size = n } }

// WithSeed sets the seed driving every random choice: the peer
// identifiers, the initial topology, joiner identifiers, and churn
// event selection (default 1). Same options, same seed: the same
// cluster.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithTopology selects the initial state (default TopologyStable). Any
// non-stable topology is returned un-stabilized; run Stabilize(ctx) to
// reach the fixed point.
func WithTopology(name string) Option { return func(c *config) { c.topology = name } }

// WithWorkers sets the number of goroutines the round engine uses to
// run rules within a round (0 = all cores, 1 = serial). The result is
// identical for any value.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// DelayModel draws per-message delivery delays for the asynchronous
// execution model (re-exported from the scheduler layer). Build one
// with DelayUniform, DelayGeometric or DelayPareto, or parse a textual
// spec with ParseDelayModel.
type DelayModel = rechord.DelayModel

// DelayUniform delays every message uniformly in 1..max steps — the
// classic bounded-delay adversary. max < 2 means synchronous timing
// (every delay exactly 1).
func DelayUniform(max int) DelayModel { return rechord.UniformDelay{Max: max} }

// DelayGeometric delays each message 1+Geometric(p) steps (mean 1/p),
// capped at max when positive.
func DelayGeometric(p float64, max int) DelayModel {
	return rechord.GeometricDelay{P: p, Max: max}
}

// DelayPareto delays messages by a heavy-tailed Pareto(alpha) draw
// (smaller alpha = heavier tail), capped at max when positive.
func DelayPareto(alpha float64, max int) DelayModel {
	return rechord.ParetoDelay{Alpha: alpha, Max: max}
}

// ParseDelayModel parses a textual delay-model spec, for command-line
// flags: "uniform:MAX", "geometric:P[:MAX]", "pareto:ALPHA[:MAX]", or
// "" for the synchronous delay of 1. Errors match ErrConfig.
func ParseDelayModel(spec string) (DelayModel, error) {
	if spec == "" {
		return DelayUniform(1), nil
	}
	parts := strings.Split(spec, ":")
	bad := func() error {
		return fmt.Errorf("%w: delay spec %q (want uniform:MAX, geometric:P[:MAX] or pareto:ALPHA[:MAX])", ErrConfig, spec)
	}
	num := func(i int) (float64, error) {
		v, err := strconv.ParseFloat(parts[i], 64)
		if err != nil {
			return 0, bad()
		}
		return v, nil
	}
	switch parts[0] {
	case "uniform":
		if len(parts) != 2 {
			return nil, bad()
		}
		v, err := num(1)
		if err != nil || v < 1 {
			return nil, bad()
		}
		return DelayUniform(int(v)), nil
	case "geometric", "geom":
		if len(parts) != 2 && len(parts) != 3 {
			return nil, bad()
		}
		p, err := num(1)
		if err != nil || p <= 0 || p > 1 {
			return nil, bad()
		}
		max := 0.0
		if len(parts) == 3 {
			if max, err = num(2); err != nil {
				return nil, bad()
			}
		}
		return DelayGeometric(p, int(max)), nil
	case "pareto":
		if len(parts) != 2 && len(parts) != 3 {
			return nil, bad()
		}
		alpha, err := num(1)
		if err != nil || alpha <= 0 {
			return nil, bad()
		}
		max := 0.0
		if len(parts) == 3 {
			if max, err = num(2); err != nil {
				return nil, bad()
			}
		}
		return DelayPareto(alpha, int(max)), nil
	}
	return nil, bad()
}

// WithAsync switches the cluster from the paper's synchronous round
// model to the asynchronous execution model: Stabilize, ChurnRandom
// and RunWorkload then step the event-driven asynchronous scheduler,
// in which each frontier peer activates with probability
// activationProb per step and messages arrive after a delay drawn from
// the model (nil = the synchronous delay of 1). Every facade method
// works unchanged; reports that count "rounds" count asynchronous
// steps instead.
func WithAsync(activationProb float64, delay DelayModel) Option {
	return func(c *config) {
		c.async = true
		c.asyncProb = activationProb
		c.asyncDelay = delay
	}
}

func (c config) validate() error {
	if c.size < 1 {
		return fmt.Errorf("%w: size %d, need at least 1 peer", ErrConfig, c.size)
	}
	if c.workers < 0 {
		return fmt.Errorf("%w: workers %d is negative", ErrConfig, c.workers)
	}
	if _, ok := generators()[c.topology]; !ok && c.topology != TopologyStable {
		return fmt.Errorf("%w: unknown topology %q (want one of %v)", ErrConfig, c.topology, Topologies())
	}
	if c.async && (c.asyncProb <= 0 || c.asyncProb > 1) {
		return fmt.Errorf("%w: async activation probability %v outside (0, 1]", ErrConfig, c.asyncProb)
	}
	return nil
}

// generators maps every non-stable topology name to its builder.
func generators() map[string]topogen.Generator {
	return map[string]topogen.Generator{
		TopologyRandom:        topogen.Random(),
		TopologyLine:          topogen.Line(),
		TopologyStar:          topogen.Star(),
		TopologyClique:        topogen.Clique(),
		TopologyBridged:       topogen.BridgedPartitions(3),
		TopologyGarbage:       topogen.Garbage(),
		TopologyLoopy:         topogen.Loopy(),
		TopologyPreStabilized: topogen.PreStabilized(),
	}
}
