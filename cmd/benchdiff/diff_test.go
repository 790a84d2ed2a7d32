package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseline = `[
  {"name": "BenchmarkStepSteadyState/n=512", "iterations": 100, "ns_per_op": 1000, "b_per_op": 0, "allocs_per_op": 0},
  {"name": "BenchmarkAsyncStep/n=2048", "iterations": 100, "ns_per_op": 2000, "b_per_op": 0, "allocs_per_op": 0},
  {"name": "BenchmarkRound/n=512", "iterations": 10, "ns_per_op": 50000, "b_per_op": 4096, "allocs_per_op": 12},
  {"name": "BenchmarkMemoryPerPeer/n=1024", "iterations": 1, "ns_per_op": 1e9, "metrics": {"bytes/peer": 30000}}
]`

func TestCleanRunPasses(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", baseline)
	fresh := writeJSON(t, dir, "new.json", baseline)
	var out strings.Builder
	if err := diff([]string{"-base", base, "-new", fresh, "-fail-allocs", "StepSteadyState|AsyncStep"}, &out); err != nil {
		t.Fatalf("identical files must pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 failing, 0 warnings") {
		t.Errorf("unexpected report:\n%s", out.String())
	}
}

func TestAllocRegressionOnGatedBenchmarkFails(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", baseline)
	fresh := writeJSON(t, dir, "new.json", strings.Replace(baseline,
		`"BenchmarkStepSteadyState/n=512", "iterations": 100, "ns_per_op": 1000, "b_per_op": 0, "allocs_per_op": 0`,
		`"BenchmarkStepSteadyState/n=512", "iterations": 100, "ns_per_op": 1000, "b_per_op": 16, "allocs_per_op": 2`, 1))
	var out strings.Builder
	err := diff([]string{"-base", base, "-new", fresh, "-fail-allocs", "StepSteadyState|AsyncStep"}, &out)
	if err == nil {
		t.Fatalf("allocs 0 -> 2 on a gated benchmark must fail\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkStepSteadyState/n=512 allocs/op") {
		t.Errorf("missing FAIL line:\n%s", out.String())
	}
}

func TestAllocRegressionOnUngatedBenchmarkWarns(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", baseline)
	fresh := writeJSON(t, dir, "new.json", strings.Replace(baseline, `"allocs_per_op": 12`, `"allocs_per_op": 20`, 1))
	var out strings.Builder
	if err := diff([]string{"-base", base, "-new", fresh, "-fail-allocs", "StepSteadyState|AsyncStep"}, &out); err != nil {
		t.Fatalf("ungated alloc regression must only warn: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "warn BenchmarkRound/n=512 allocs/op") {
		t.Errorf("missing warn line:\n%s", out.String())
	}
}

func TestNsDriftWarnsWithoutFailing(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", baseline)
	fresh := writeJSON(t, dir, "new.json", strings.Replace(baseline, `"ns_per_op": 2000`, `"ns_per_op": 3000`, 1))
	var out strings.Builder
	if err := diff([]string{"-base", base, "-new", fresh, "-fail-allocs", "StepSteadyState|AsyncStep", "-github"}, &out); err != nil {
		t.Fatalf("ns drift must be non-blocking: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "warn BenchmarkAsyncStep/n=2048 ns/op") {
		t.Errorf("missing ns warning:\n%s", s)
	}
	if !strings.Contains(s, "::warning::benchdiff:") {
		t.Errorf("missing GitHub annotation:\n%s", s)
	}
}

func TestNsWithinToleranceIsSilent(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", baseline)
	fresh := writeJSON(t, dir, "new.json", strings.Replace(baseline, `"ns_per_op": 2000`, `"ns_per_op": 2400`, 1))
	var out strings.Builder
	if err := diff([]string{"-base", base, "-new", fresh}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 failing, 0 warnings") {
		t.Errorf("+20%% at 25%% tolerance must be silent:\n%s", out.String())
	}
}

func TestCustomMetricCompared(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", baseline)
	fresh := writeJSON(t, dir, "new.json", strings.Replace(baseline, `"bytes/peer": 30000`, `"bytes/peer": 60000`, 1))
	var out strings.Builder
	if err := diff([]string{"-base", base, "-new", fresh, "-metric", "bytes/peer"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "warn BenchmarkMemoryPerPeer/n=1024 bytes/peer") {
		t.Errorf("missing metric warning:\n%s", out.String())
	}
}

func TestFailMetricGatesRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", baseline)
	fresh := writeJSON(t, dir, "new.json", strings.Replace(baseline, `"bytes/peer": 30000`, `"bytes/peer": 34000`, 1))
	var out strings.Builder
	err := diff([]string{"-base", base, "-new", fresh, "-metric", "bytes/peer",
		"-metric-tol", "0.10", "-fail-metric", "BenchmarkMemoryPerPeer"}, &out)
	if err == nil {
		t.Fatalf("+13%% bytes/peer at 10%% gated tolerance must fail\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkMemoryPerPeer/n=1024 bytes/peer") {
		t.Errorf("missing FAIL line:\n%s", out.String())
	}
}

func TestFailMetricWithinToleranceIsSilent(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", baseline)
	fresh := writeJSON(t, dir, "new.json", strings.Replace(baseline, `"bytes/peer": 30000`, `"bytes/peer": 32000`, 1))
	var out strings.Builder
	if err := diff([]string{"-base", base, "-new", fresh, "-metric", "bytes/peer",
		"-metric-tol", "0.10", "-fail-metric", "BenchmarkMemoryPerPeer"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 failing, 0 warnings") {
		t.Errorf("+7%% at 10%% tolerance must be silent:\n%s", out.String())
	}
}

func TestGatedBenchmarkDisappearingFails(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", baseline)
	fresh := writeJSON(t, dir, "new.json", `[
  {"name": "BenchmarkStepSteadyState/n=512", "iterations": 100, "ns_per_op": 1000, "b_per_op": 0, "allocs_per_op": 0}
]`)
	var out strings.Builder
	err := diff([]string{"-base", base, "-new", fresh, "-fail-allocs", "StepSteadyState|AsyncStep"}, &out)
	if err == nil {
		t.Fatalf("gated benchmark missing from fresh run must fail\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkAsyncStep/n=2048: missing") {
		t.Errorf("missing FAIL line:\n%s", out.String())
	}
}

func TestMissingFlagsRejected(t *testing.T) {
	var out strings.Builder
	if err := diff([]string{"-base", "x.json"}, &out); err == nil {
		t.Fatal("missing -new must be rejected")
	}
	for _, args := range [][]string{nil, {"-base", "x.json"}, {"benchjson"}} {
		if err := run(args, strings.NewReader(""), &out); err == nil {
			t.Fatalf("%q is no subcommand and must be rejected", args)
		}
	}
}
