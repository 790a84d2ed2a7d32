package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkStepSteadyState/n=2048-8   	 300000	      4.1 ns/op	       0 B/op	       0 allocs/op
some interleaved log line
BenchmarkWorkload/uniform-8         	     10	  1200000 ns/op	  98 lookup-p99-ns
PASS
`

func TestRecordParsesBenchOutput(t *testing.T) {
	var out bytes.Buffer
	if err := record(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var results []result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	if results[0].Name != "BenchmarkStepSteadyState/n=2048-8" || results[0].NsPerOp != 4.1 {
		t.Errorf("first result mismatched: %+v", results[0])
	}
	if results[1].Metrics["lookup-p99-ns"] != 98 {
		t.Errorf("custom metric not captured: %+v", results[1])
	}
}

func TestRecordEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := record(strings.NewReader("no benchmarks here\n"), &out); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(out.String()); s != "null" && s != "[]" {
		t.Errorf("empty input produced %q", s)
	}
}
