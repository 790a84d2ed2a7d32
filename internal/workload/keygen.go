package workload

import (
	"fmt"
	"math/rand"
)

// Key distributions. A keyGen maps a worker's op index to a key index
// in [0, Keyspace), drawing randomness from the worker's own seeded
// RNG — the sequence is a pure function of (seed, worker, op index),
// which is what makes runs reproducible.
type keyGen interface {
	next(i int) int
}

// Distribution names accepted by Config.Distribution.
const (
	DistUniform = "uniform"
	DistZipf    = "zipf"
	DistHotspot = "hotspot"
)

// The shapes of the skewed distributions: no caller varies them, so they
// are constants, not configuration.
const (
	zipfS = 1.2 // Zipf-Mandelbrot exponent
	zipfV = 1   // and offset

	hotFraction   = 0.9  // share of the traffic that goes to the hot window
	hotKeysDiv    = 64   // the window is Keyspace/hotKeysDiv keys wide
	hotShiftEvery = 1000 // ops between two jumps of the window
)

type uniformGen struct {
	rng *rand.Rand
	n   int
}

func (g *uniformGen) next(int) int { return g.rng.Intn(g.n) }

// zipfGen skews toward low key indices with the standard Zipf-Mandelbrot
// law.
type zipfGen struct {
	z *rand.Zipf
}

func (g *zipfGen) next(int) int { return int(g.z.Uint64()) }

// hotspotGen sends hotFraction of the traffic to a window of hotKeys
// contiguous keys whose position jumps every hotShiftEvery ops — the
// shifting-hotspot model: caches and buckets that tuned themselves to
// one hot set see it move out from under them mid-run.
type hotspotGen struct {
	rng     *rand.Rand
	n       int
	hotKeys int
}

func (g *hotspotGen) next(i int) int {
	if g.rng.Float64() < hotFraction {
		// The window start strides by a large odd constant so
		// successive windows land far apart on the keyspace.
		base := (i / hotShiftEvery) * (g.hotKeys*7 + 1) % g.n
		return (base + g.rng.Intn(g.hotKeys)) % g.n
	}
	return g.rng.Intn(g.n)
}

// newKeyGen builds the generator the config names. The rng must be the
// worker's private RNG.
func newKeyGen(cfg Config, rng *rand.Rand) (keyGen, error) {
	switch cfg.Distribution {
	case DistUniform, "":
		return &uniformGen{rng: rng, n: cfg.Keyspace}, nil
	case DistZipf:
		return &zipfGen{z: rand.NewZipf(rng, zipfS, zipfV, uint64(cfg.Keyspace-1))}, nil
	case DistHotspot:
		return &hotspotGen{rng: rng, n: cfg.Keyspace, hotKeys: max(cfg.Keyspace/hotKeysDiv, 1)}, nil
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q (want %s, %s or %s)",
			cfg.Distribution, DistUniform, DistZipf, DistHotspot)
	}
}
