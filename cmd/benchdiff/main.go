// Command benchdiff is the repo's benchmark tooling: it records
// `go test -bench` output as JSON, gates a fresh recording against a
// committed baseline, and renders the scale ladder. The Makefile's
// bench-record / bench-gate targets and CI's scale-table step are its
// callers.
//
//	go test -run '^$' -bench . -benchmem . | benchdiff record > BENCH_rounds.json
//	benchdiff diff -base BENCH_rounds.json -new fresh.json [flags]
//	benchdiff scale [SCALE.json]
//
// record converts benchmark lines on stdin into a machine-diffable JSON
// array on stdout (ns/op, allocs/op, custom metrics; the format of the
// committed BENCH_*.json), tolerating arbitrary other lines in between.
//
// diff compares two such files with per-metric tolerance flags. It is
// the CI perf gate: allocation regressions on the gated benchmarks fail
// the build, time and size drift produce non-blocking warnings
// (benchmark machines are shared; wall-clock noise must not block
// merges, but an alloc count is deterministic). Exit status 1 means at
// least one failing regression. The flags:
//
//	[-fail-allocs regex] [-allocs-tol 0] [-ns-tol 0.25] [-fail-ns regex]
//	[-bytes-tol 0.25] [-metric bytes/peer] [-fail-metric regex]
//	[-metric-tol 0.10] [-github]
//
// scale renders a SCALE.json scale ladder (written by the largescale
// suites when SCALE_JSON is set) as a markdown table; CI pipes it into
// $GITHUB_STEP_SUMMARY so every run publishes the ladder — n, settle
// rounds, wall time, bytes/peer — next to the logs.
package main

import (
	"fmt"
	"io"
	"os"
)

// result is one benchmark line in normalized form: what record writes
// and diff reads.
type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      *float64           `json:"b_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "record":
			return record(stdin, stdout)
		case "diff":
			return diff(args[1:], stdout)
		case "scale":
			return scale(args[1:], stdout)
		}
	}
	return fmt.Errorf("usage: benchdiff record|diff|scale [arguments]")
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}
