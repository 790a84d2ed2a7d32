package main

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"strings"
)

// parseLine reads one `go test -bench` result line; ok is false for
// every other line.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	res := result{Name: fields[0], Iterations: iters}
	sawNs := false
	// The remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
			sawNs = true
		case "B/op":
			v := val
			res.BPerOp = &v
		case "allocs/op":
			v := val
			res.AllocsPerOp = &v
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = val
		}
	}
	return res, sawNs
}

// record writes the benchmark lines found on stdin as a JSON array.
func record(stdin io.Reader, stdout io.Writer) error {
	var results []result
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
