// Package scaletable records and renders the scale ladder: for each
// (scheduler model, n) rung the largescale suites climb, how many
// rounds the settle took, how long it ran, and how much resident state
// it held per peer. The suites append entries into SCALE.json as they
// pass (gated on the SCALE_JSON environment variable so ordinary test
// runs stay write-free), CI uploads the file as an artifact, and
// `benchdiff scale` turns it into the markdown table published in the
// job's step summary.
package scaletable

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Entry is one rung of the scale ladder.
type Entry struct {
	// N is the network size.
	N int `json:"n"`
	// Model names the scheduler: "sync" or "async".
	Model string `json:"model"`
	// Rounds is how many rounds (sync) or steps (async) the settle took.
	Rounds int `json:"rounds"`
	// WallSeconds is the settle's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// BytesPerPeer is the settled network's resident heap per peer;
	// zero when the suite did not measure it.
	BytesPerPeer float64 `json:"bytes_per_peer,omitempty"`
}

// Load reads a SCALE.json file. A missing file is an empty ladder,
// not an error: suites append rungs independently and any of them may
// be first.
func Load(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var es []Entry
	if err := json.Unmarshal(data, &es); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return es, nil
}

// Append merges e into the file at path, replacing any existing entry
// for the same (Model, N) rung, and writes the ladder back sorted by
// model then size. Read-modify-write, not append-only: re-runs update
// their rung in place instead of accumulating duplicates.
func Append(path string, e Entry) error {
	es, err := Load(path)
	if err != nil {
		return err
	}
	replaced := false
	for i := range es {
		if es[i].Model == e.Model && es[i].N == e.N {
			es[i] = e
			replaced = true
			break
		}
	}
	if !replaced {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Model != es[j].Model {
			return es[i].Model < es[j].Model
		}
		return es[i].N < es[j].N
	})
	data, err := json.MarshalIndent(es, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RecordEnv appends e to the ladder file named by the SCALE_JSON
// environment variable, and does nothing when it is unset — the hook
// the largescale suites call so ordinary test runs stay write-free
// while CI (which exports SCALE_JSON) collects the table.
func RecordEnv(e Entry) error {
	path := os.Getenv("SCALE_JSON")
	if path == "" {
		return nil
	}
	return Append(path, e)
}

// Markdown renders the ladder as a GitHub-flavored markdown table,
// suitable for $GITHUB_STEP_SUMMARY.
func Markdown(es []Entry) string {
	var b strings.Builder
	b.WriteString("| n | model | settle rounds | wall time | bytes/peer |\n")
	b.WriteString("|--:|:------|--------------:|----------:|-----------:|\n")
	for _, e := range es {
		bpp := "—"
		if e.BytesPerPeer > 0 {
			bpp = fmt.Sprintf("%.0f", e.BytesPerPeer)
		}
		wall := time.Duration(e.WallSeconds * float64(time.Second)).Round(10 * time.Millisecond)
		fmt.Fprintf(&b, "| %d | %s | %d | %v | %s |\n", e.N, e.Model, e.Rounds, wall, bpp)
	}
	return b.String()
}
