package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// RecordSchema identifies the BENCH_<n>.json format version.
const RecordSchema = "proteustm-bench/v1"

// Result is one measured benchmark in a Record.
type Result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// AbortShare is aborted attempts over all attempts, for the rows whose
	// body reports it (the bare-TM rows); 0 elsewhere.
	AbortShare float64 `json:"abort_share"`
}

// Record is a full regression-suite run, persisted as BENCH_<n>.json at the
// repository root. Records are append-only: each perf PR adds the next
// index, so the sequence is the project's performance trajectory.
type Record struct {
	Schema    string   `json:"schema"`
	Go        string   `json:"go"`
	MaxProcs  int      `json:"maxprocs"`
	BenchTime string   `json:"benchtime"`
	Note      string   `json:"note,omitempty"`
	Results   []Result `json:"results"`
}

// RunSuite measures every suite case whose name contains filter (empty
// matches all), reporting progress to progress (may be nil).
func RunSuite(filter string, progress io.Writer) Record {
	rec := Record{
		Schema:   RecordSchema,
		Go:       runtime.Version(),
		MaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, cs := range Suite() {
		if filter != "" && !strings.Contains(cs.Name, filter) {
			continue
		}
		r := testing.Benchmark(cs.Fn)
		res := Result{
			Name:        cs.Name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			AbortShare:  r.Extra[abortShareUnit],
		}
		rec.Results = append(rec.Results, res)
		if progress != nil {
			fmt.Fprintf(progress, "%-34s %12d iters %12.1f ns/op %6d B/op %4d allocs/op %7.4f aborts\n",
				res.Name, res.Iters, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.AbortShare)
		}
	}
	return rec
}

// WriteFile persists the record as indented JSON.
func (r Record) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRecord loads a previously written record.
func ReadRecord(path string) (Record, error) {
	var r Record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// NextRecordPath returns dir/BENCH_<n>.json for the smallest n not yet
// taken (BENCH_0.json on a fresh tree).
func NextRecordPath(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	next := 0
	for _, m := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		if n, err := strconv.Atoi(base); err == nil && n >= next {
			next = n + 1
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), nil
}

// Compare renders an old-vs-new ns/op table (positive delta = faster) for
// every benchmark present in both records, sorted by name.
func Compare(old, new Record, w io.Writer) {
	oldBy := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldBy[r.Name] = r
	}
	names := make([]string, 0, len(new.Results))
	for _, r := range new.Results {
		if _, ok := oldBy[r.Name]; ok {
			names = append(names, r.Name)
		}
	}
	sort.Strings(names)
	newBy := make(map[string]Result, len(new.Results))
	for _, r := range new.Results {
		newBy[r.Name] = r
	}
	fmt.Fprintf(w, "%-34s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		o, n := oldBy[name], newBy[name]
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = (o.NsPerOp - n.NsPerOp) / o.NsPerOp * 100
		}
		fmt.Fprintf(w, "%-34s %14.1f %14.1f %+7.1f%%\n", name, o.NsPerOp, n.NsPerOp, delta)
	}
}
