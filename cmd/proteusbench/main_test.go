package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchEmptySelectionFails: a --filter that no suite case name contains
// (it is a substring, not a pattern) is an error naming the filter, with or
// without --dry-run, and no record is written.
func TestBenchEmptySelectionFails(t *testing.T) {
	const filter = "Algorithms|PolyTMDispatch"
	out := filepath.Join(t.TempDir(), "BENCH_0.json")
	for _, args := range [][]string{
		{"--filter", filter, "--out", out},
		{"--filter", filter, "--dry-run"},
	} {
		err := cmdBench(args)
		if err == nil || !strings.Contains(err.Error(), filter) {
			t.Errorf("cmdBench(%q) = %v, want an error naming the filter", args, err)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a record was written for an empty selection (stat: %v)", err)
	}
}
