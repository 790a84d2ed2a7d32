package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
)

func load(path string) (map[string]result, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rs []result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]result, len(rs))
	order := make([]string, 0, len(rs))
	for _, r := range rs {
		if _, dup := m[r.Name]; !dup {
			order = append(order, r.Name)
		}
		m[r.Name] = r
	}
	return m, order, nil
}

// multiString collects repeatable -metric flags.
type multiString []string

func (m *multiString) String() string     { return fmt.Sprint([]string(*m)) }
func (m *multiString) Set(s string) error { *m = append(*m, s); return nil }

type reporter struct {
	w                  io.Writer
	github             bool
	failures, warnings int
}

func (rp *reporter) fail(format string, args ...interface{}) {
	rp.failures++
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(rp.w, "FAIL %s\n", msg)
	if rp.github {
		fmt.Fprintf(rp.w, "::error::benchdiff: %s\n", msg)
	}
}

func (rp *reporter) warn(format string, args ...interface{}) {
	rp.warnings++
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(rp.w, "warn %s\n", msg)
	if rp.github {
		fmt.Fprintf(rp.w, "::warning::benchdiff: %s\n", msg)
	}
}

// pct renders the relative change new/base-1, tolerating base 0.
func pct(base, new float64) string {
	if base == 0 {
		if new == 0 {
			return "+0%"
		}
		return "+inf%"
	}
	return fmt.Sprintf("%+.0f%%", 100*(new/base-1))
}

// regressed reports whether new exceeds base beyond the relative
// tolerance. A zero baseline admits no increase at any tolerance: the
// gated benchmarks pin "stays zero", and zero times any factor is zero.
func regressed(base, new, tol float64) bool {
	if math.IsNaN(base) || math.IsNaN(new) {
		return false
	}
	return new > base*(1+tol) && new > base
}

// diff gates the -new recording against the -base one.
func diff(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff diff", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		basePath   = fs.String("base", "", "committed baseline JSON (required)")
		newPath    = fs.String("new", "", "freshly recorded JSON (required)")
		failAllocs = fs.String("fail-allocs", "", "regex of benchmark names whose allocs/op regression fails the run")
		allocsTol  = fs.Float64("allocs-tol", 0, "allowed relative allocs/op increase")
		nsTol      = fs.Float64("ns-tol", 0.25, "allowed relative ns/op increase")
		failNs     = fs.String("fail-ns", "", "regex of benchmark names whose ns/op regression fails the run (default: warn only)")
		bytesTol   = fs.Float64("bytes-tol", 0.25, "allowed relative b/op and custom-metric increase")
		failMetric = fs.String("fail-metric", "", "regex of benchmark names whose custom-metric regression fails the run (default: warn only)")
		metricTol  = fs.Float64("metric-tol", -1, "allowed relative custom-metric increase (default: -bytes-tol)")
		github     = fs.Bool("github", false, "emit GitHub Actions ::warning::/::error:: annotations")
		metrics    multiString
	)
	fs.Var(&metrics, "metric", "custom metric key to compare (repeatable, e.g. bytes/peer)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *newPath == "" {
		fs.Usage()
		return fmt.Errorf("both -base and -new are required")
	}
	var reFailAllocs, reFailNs *regexp.Regexp
	var err error
	if *failAllocs != "" {
		if reFailAllocs, err = regexp.Compile(*failAllocs); err != nil {
			return fmt.Errorf("-fail-allocs: %w", err)
		}
	}
	if *failNs != "" {
		if reFailNs, err = regexp.Compile(*failNs); err != nil {
			return fmt.Errorf("-fail-ns: %w", err)
		}
	}
	var reFailMetric *regexp.Regexp
	if *failMetric != "" {
		if reFailMetric, err = regexp.Compile(*failMetric); err != nil {
			return fmt.Errorf("-fail-metric: %w", err)
		}
	}
	mTol := *bytesTol
	if *metricTol >= 0 {
		mTol = *metricTol
	}

	base, order, err := load(*basePath)
	if err != nil {
		return err
	}
	fresh, _, err := load(*newPath)
	if err != nil {
		return err
	}

	rp := &reporter{w: stdout, github: *github}
	compared := 0
	for _, name := range order {
		b := base[name]
		n, ok := fresh[name]
		if !ok {
			gated := (reFailAllocs != nil && reFailAllocs.MatchString(name)) ||
				(reFailNs != nil && reFailNs.MatchString(name)) ||
				(reFailMetric != nil && reFailMetric.MatchString(name))
			if gated {
				rp.fail("%s: missing from %s (gated benchmark disappeared)", name, *newPath)
			} else {
				rp.warn("%s: missing from %s", name, *newPath)
			}
			continue
		}
		compared++

		if b.AllocsPerOp != nil && n.AllocsPerOp != nil && regressed(*b.AllocsPerOp, *n.AllocsPerOp, *allocsTol) {
			msg := fmt.Sprintf("%s allocs/op: %.0f -> %.0f (%s, tol %.0f%%)",
				name, *b.AllocsPerOp, *n.AllocsPerOp, pct(*b.AllocsPerOp, *n.AllocsPerOp), 100**allocsTol)
			if reFailAllocs != nil && reFailAllocs.MatchString(name) {
				rp.fail("%s", msg)
			} else {
				rp.warn("%s", msg)
			}
		}
		if regressed(b.NsPerOp, n.NsPerOp, *nsTol) {
			msg := fmt.Sprintf("%s ns/op: %.0f -> %.0f (%s, tol %.0f%%)",
				name, b.NsPerOp, n.NsPerOp, pct(b.NsPerOp, n.NsPerOp), 100**nsTol)
			if reFailNs != nil && reFailNs.MatchString(name) {
				rp.fail("%s", msg)
			} else {
				rp.warn("%s", msg)
			}
		}
		if b.BPerOp != nil && n.BPerOp != nil && regressed(*b.BPerOp, *n.BPerOp, *bytesTol) {
			rp.warn("%s B/op: %.0f -> %.0f (%s, tol %.0f%%)",
				name, *b.BPerOp, *n.BPerOp, pct(*b.BPerOp, *n.BPerOp), 100**bytesTol)
		}
		for _, key := range metrics {
			bv, bok := b.Metrics[key]
			nv, nok := n.Metrics[key]
			if bok && nok && regressed(bv, nv, mTol) {
				msg := fmt.Sprintf("%s %s: %.0f -> %.0f (%s, tol %.0f%%)",
					name, key, bv, nv, pct(bv, nv), 100*mTol)
				if reFailMetric != nil && reFailMetric.MatchString(name) {
					rp.fail("%s", msg)
				} else {
					rp.warn("%s", msg)
				}
			}
		}
	}

	fmt.Fprintf(stdout, "benchdiff: %d benchmarks compared against %s: %d failing, %d warnings\n",
		compared, *basePath, rp.failures, rp.warnings)
	if rp.failures > 0 {
		return fmt.Errorf("%d failing benchmark regression(s)", rp.failures)
	}
	return nil
}
