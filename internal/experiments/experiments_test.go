package experiments

import (
	"bytes"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.txt from the current runners")

// The package's tests share one Quick() sweep, and each runner runs on
// it at most once per test binary.
var (
	quickSweep   = NewSweep(Quick())
	quickResults = map[string]*Result{}
)

// quickResult returns the named runner's result on the shared sweep,
// checked for a non-empty table holding wantCols.
func quickResult(t *testing.T, name string, wantCols ...string) *Result {
	t.Helper()
	r, ok := quickResults[name]
	if !ok {
		i := slices.IndexFunc(Runners, func(rn Runner) bool { return rn.Name == name })
		if i < 0 {
			t.Fatalf("no runner named %q", name)
		}
		var err error
		if r, err = Runners[i].Run(quickSweep); err != nil {
			t.Fatal(err)
		}
		quickResults[name] = r
	}
	if r.Name != name {
		t.Errorf("runner %q names its result %q", name, r.Name)
	}
	if r.Table == nil || len(r.Table.Rows) == 0 {
		t.Fatalf("%s: empty table", r.Name)
	}
	var b strings.Builder
	if err := r.WriteText(&b, false); err != nil {
		t.Fatal(err)
	}
	for _, c := range wantCols {
		if !strings.Contains(b.String(), c) {
			t.Errorf("%s: table missing column %q:\n%s", r.Name, c, b.String())
		}
	}
	return r
}

// TestQuickGolden is the byte-identity gate on the rendered evaluation:
// the table, fits and notes of all fifteen runners at Quick() against
// testdata/quick.txt (`go test ./internal/experiments -run
// TestQuickGolden -update` rewrites it; do that only when the numbers
// are meant to move).
func TestQuickGolden(t *testing.T) {
	const path = "testdata/quick.txt"
	var got bytes.Buffer
	for _, rn := range Runners {
		if err := quickResult(t, rn.Name).WriteText(&got, false); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestSweepSimulatesEachRunOnce: all fifteen runners together cost one
// convergence per (generator, size, rep) — 6 generators x 3 sizes x 3
// reps at Quick(), where un-shared runners would simulate 96.
func TestSweepSimulatesEachRunOnce(t *testing.T) {
	for _, rn := range Runners {
		quickResult(t, rn.Name)
	}
	if got, want := len(quickSweep.recs), 6*3*3; got != want {
		t.Errorf("sweep simulated %d convergences, want %d", got, want)
	}
}

func TestFig5Quick(t *testing.T) {
	quickResult(t, "fig5", "normal_edges", "connection_edges", "virtual_nodes")
}

func TestFig6Quick(t *testing.T) {
	quickResult(t, "fig6", "rounds_stable", "rounds_almost_stable")
}

func TestFig7Quick(t *testing.T) {
	r := quickResult(t, "fig7", "total_nodes", "total_edges")
	if len(r.Table.Rows) != len(Quick().Sizes)*Quick().Reps {
		t.Errorf("fig7 rows = %d, want one per run", len(r.Table.Rows))
	}
}

func TestConvergenceQuick(t *testing.T) {
	quickResult(t, "convergence", "random", "clique", "garbage")
}

func TestJoinLeaveFailQuick(t *testing.T) {
	for _, name := range []string{"join", "leave", "fail"} {
		quickResult(t, name, "recovery_rounds_mean")
	}
}

func TestFact21Quick(t *testing.T) {
	r := quickResult(t, "fact21", "direct_in_rechord", "wrap_reachable")
	for _, row := range r.Table.Rows {
		if row[4] != "true" {
			t.Errorf("Fact 2.1 wrap edges not reachable: %v", row)
		}
	}
}

func TestChordFailQuick(t *testing.T) {
	r := quickResult(t, "chordfail", "chord_recovered", "rechord_recovered")
	for _, row := range r.Table.Rows {
		if row[3] != "false" || row[5] != "true" {
			t.Errorf("chordfail row unexpected: %v", row)
		}
	}
}

func TestBudgetQuick(t *testing.T) {
	quickResult(t, "budget", "within_bound")
}

func TestLookupQuick(t *testing.T) {
	quickResult(t, "lookup", "mean_hops")
}

func TestAblationQuick(t *testing.T) {
	r := quickResult(t, "ablation", "variant", "matches_ideal")
	sawFullOK, sawNoRingBad := false, false
	for _, row := range r.Table.Rows {
		if row[1] == "full" && row[4] == "true" {
			sawFullOK = true
		}
		if row[1] == "no-ring" && row[4] == "false" {
			sawNoRingBad = true
		}
	}
	if !sawFullOK {
		t.Error("full variant should match ideal")
	}
	if !sawNoRingBad {
		t.Error("no-ring variant should not match ideal")
	}
}

func TestMessagesQuick(t *testing.T) {
	quickResult(t, "messages", "total_messages", "messages_per_round")
}

func TestHealingQuick(t *testing.T) {
	r := quickResult(t, "healing", "round_100pct", "almost_stable")
	for _, row := range r.Table.Rows {
		if row[1] == "-1" {
			t.Errorf("healing never reached 50%% routability: %v", row)
		}
	}
}

func TestAsyncQuick(t *testing.T) {
	r := quickResult(t, "async", "steps_p100", "steps_p50", "steps_p25")
	if len(r.Series) != len(asyncProbs) {
		t.Errorf("async series = %d, want one per activation probability", len(r.Series))
	}
}
