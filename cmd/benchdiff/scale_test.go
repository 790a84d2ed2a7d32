package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scaletable"
)

func TestScaleRendersLadder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "SCALE.json")
	for _, e := range []scaletable.Entry{
		{N: 2048, Model: "sync", Rounds: 65, WallSeconds: 5.7, BytesPerPeer: 35264},
		{N: 8192, Model: "async", Rounds: 120000, WallSeconds: 42.0},
	} {
		if err := scaletable.Append(path, e); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := scale([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"2048", "8192", "sync", "async"} {
		if !strings.Contains(got, want) {
			t.Errorf("table missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, "|") {
		t.Errorf("output is not a markdown table:\n%s", got)
	}
}

func TestScaleEmptyLadder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "SCALE.json")
	var out bytes.Buffer
	if err := scale([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no entries") {
		t.Errorf("empty ladder output: %q", out.String())
	}
}

func TestScaleRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "SCALE.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := scale([]string{path}, &out); err == nil {
		t.Fatal("corrupt ladder accepted")
	}
}
