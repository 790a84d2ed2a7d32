package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/topogen"
)

// Script is the deterministic run description every process of a wire
// cluster shares: a named topology generator, size and seed (so each
// process rebuilds the identical replicated network) plus a schedule
// of membership ops. The textual form is line-oriented:
//
//	rechord-wire-script v1
//	topo random 48 7
//	maxrounds 4000
//	op 3 join 5a5a000000000001 contact 00119b2f4c81d3e6
//	op 6 leave 00119b2f4c81d3e6
//	op 9 fail 77aa000000000003
//
// Identifiers are the 16-digit hex form (ident.Hex); op rounds must be
// non-decreasing and >= 1 (ops for round r apply before round r runs).
type Script struct {
	Topology  string
	N         int
	Seed      int64
	MaxRounds int
	Ops       []Op
}

// Op is one scheduled membership change: churn.Event under the script
// layer's names. Round is the round the op applies before.
type Op = churn.Event

const (
	OpJoin  = churn.Join
	OpLeave = churn.Leave
	OpFail  = churn.Fail
)

// DefaultMaxRounds caps a run whose script doesn't set its own bound.
const DefaultMaxRounds = 10000

// generatorByName resolves the topogen registry names scripts use.
func generatorByName(name string) (topogen.Generator, error) {
	for _, g := range append(topogen.All(), topogen.PreStabilized(), topogen.Loopy()) {
		if g.Name == name {
			return g, nil
		}
	}
	return topogen.Generator{}, fmt.Errorf("wire: unknown topology %q", name)
}

// Build constructs this process's replica of the network: same seed,
// same generator, same initial state at every rank.
func (s *Script) Build(cfg rechord.Config) (*rechord.Network, error) {
	gen, err := generatorByName(s.Topology)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	ids := topogen.RandomIDs(s.N, rng)
	return gen.Build(ids, rng, cfg), nil
}

// ParseScript reads the textual form.
func ParseScript(r io.Reader) (*Script, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("wire: empty script")
	}
	if got := strings.TrimSpace(sc.Text()); got != "rechord-wire-script v1" {
		return nil, fmt.Errorf("wire: bad script header %q", got)
	}
	s := &Script{MaxRounds: DefaultMaxRounds}
	sawTopo := false
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "topo":
			if len(fields) != 4 {
				return nil, fmt.Errorf("wire: line %d: topo wants <name> <n> <seed>", line)
			}
			s.Topology = fields[1]
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("wire: line %d: bad size %q", line, fields[2])
			}
			seed, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("wire: line %d: bad seed %q", line, fields[3])
			}
			s.N, s.Seed, sawTopo = n, seed, true
		case "maxrounds":
			if len(fields) != 2 {
				return nil, fmt.Errorf("wire: line %d: maxrounds wants one value", line)
			}
			m, err := strconv.Atoi(fields[1])
			if err != nil || m < 1 {
				return nil, fmt.Errorf("wire: line %d: bad maxrounds %q", line, fields[1])
			}
			s.MaxRounds = m
		case "op":
			op, err := parseOp(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("wire: line %d: %v", line, err)
			}
			if k := len(s.Ops); k > 0 && op.Round < s.Ops[k-1].Round {
				return nil, fmt.Errorf("wire: line %d: op rounds must be non-decreasing", line)
			}
			s.Ops = append(s.Ops, op)
		default:
			return nil, fmt.Errorf("wire: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawTopo {
		return nil, fmt.Errorf("wire: script has no topo line")
	}
	return s, nil
}

func parseOp(fields []string) (Op, error) {
	if len(fields) < 3 {
		return Op{}, fmt.Errorf("op wants <round> <join|leave|fail> <idhex> ...")
	}
	round, err := strconv.Atoi(fields[0])
	if err != nil || round < 1 {
		return Op{}, fmt.Errorf("bad op round %q", fields[0])
	}
	id, err := ident.ParseHex(fields[2])
	if err != nil {
		return Op{}, err
	}
	op := Op{Round: round, Kind: churn.Kind(fields[1]), ID: id}
	switch op.Kind {
	case OpJoin:
		if len(fields) != 5 || fields[3] != "contact" {
			return Op{}, fmt.Errorf("join wants <idhex> contact <idhex>")
		}
		if op.Contact, err = ident.ParseHex(fields[4]); err != nil {
			return Op{}, err
		}
	case OpLeave, OpFail:
		if len(fields) != 3 {
			return Op{}, fmt.Errorf("%s wants exactly <idhex>", op.Kind)
		}
	default:
		return Op{}, fmt.Errorf("unknown op kind %q", fields[1])
	}
	return op, nil
}

// Format renders the script back to its textual form.
func (s *Script) Format() []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, "rechord-wire-script v1")
	fmt.Fprintf(&b, "topo %s %d %d\n", s.Topology, s.N, s.Seed)
	if s.MaxRounds != DefaultMaxRounds {
		fmt.Fprintf(&b, "maxrounds %d\n", s.MaxRounds)
	}
	for _, op := range s.Ops {
		fmt.Fprintf(&b, "op %d %s %s", op.Round, op.Kind, op.ID.Hex())
		if op.Kind == OpJoin {
			fmt.Fprintf(&b, " contact %s", op.Contact.Hex())
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// applyDue applies, in script order, the ops scheduled for round r
// starting at cursor next, and returns the advanced cursor. Every leg
// of the equivalence gate schedules its ops through it.
func (s *Script) applyDue(m churn.Membership, next, r int) (int, error) {
	for next < len(s.Ops) && s.Ops[next].Round == r {
		if err := s.Ops[next].Apply(m); err != nil {
			return next, err
		}
		next++
	}
	return next, nil
}

// RunMonolith executes the script in-process on one Network — the
// reference leg of the equivalence gate. It returns the converged
// fingerprint and the round count.
func (s *Script) RunMonolith(cfg rechord.Config) (fp uint64, rounds int, err error) {
	nw, err := s.Build(cfg)
	if err != nil {
		return 0, 0, err
	}
	next := 0
	for r := 1; ; r++ {
		if r > s.MaxRounds {
			return 0, r, fmt.Errorf("wire: monolith did not converge in %d rounds", s.MaxRounds)
		}
		if next, err = s.applyDue(nw, next, r); err != nil {
			return 0, r, err
		}
		nw.Step()
		if next == len(s.Ops) && nw.Quiescent() {
			return nw.StateFingerprint(nil), r, nil
		}
	}
}
