package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the runner reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedSpec `json:"end_to_end"`
	PerLayer []boundedSpec `json:"per_layer"`
}

type boundedSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadSet reads a result set into workload -> metric -> values, from
// the untraced runs only: end-to-end numbers never come from a traced
// run.
func loadSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: an incorrect run of %s (seed %d) is in the set", path, line, r.Workload, r.Seed)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// Verdicts of one (metric, workload) row.
const (
	within     = "within bound"
	worse      = "WORSE"
	unresolved = "UNRESOLVED"
)

// judge applies a metric's bound to two sets of runs of one workload:
// b is worse when its median is worse than a's by more than the bound;
// when either set's own spread is wider than the bound the row is
// unresolved, unless every run of b reads better than every run of a.
func judge(s boundedSpec, a, b []float64) (verdict string, change float64) {
	higher := s.Better == "higher"
	ma, mb := median(a), median(b)
	change = ratio(mb-ma, ma) // positive: b is worse
	if higher {
		change = -change
	}
	if max(spread(a), spread(b)) > s.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (higher && y <= x) || (!higher && y >= x) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return unresolved, change
		}
	}
	if change > s.Bound {
		return worse, change
	}
	return within, change
}

// compareSets prints one row per (end-to-end metric, workload) and
// fails when any row is worse or unresolved.
func compareSets(w io.Writer, benchmarkPath, pathA, pathB string) error {
	bm, err := loadBenchmark(benchmarkPath)
	if err != nil {
		return err
	}
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-16s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "b worse", "spread a", "spread b", "bound", "verdict")
	bad := 0
	for _, wl := range bm.Workloads {
		for _, s := range bm.EndToEnd {
			va, vb := a[wl.Name][s.Name], b[wl.Name][s.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-16s missing from a set (a: %d runs, b: %d runs)\n", wl.Name, s.Name, len(va), len(vb))
				bad++
				continue
			}
			verdict, change := judge(s, va, vb)
			if verdict != within {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, s.Name, median(va), median(vb), 100*change, 100*spread(va), 100*spread(vb), 100*s.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse, unresolved or missing", bad)
	}
	return nil
}
