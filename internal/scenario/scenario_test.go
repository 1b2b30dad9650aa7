package scenario

import (
	"strings"
	"testing"

	"repro/internal/polytm"
	"repro/internal/workloads"
)

// TestRegistryCoversEveryFamily pins the acceptance criterion that every
// workload family in internal/workloads is reachable from the registry.
func TestRegistryCoversEveryFamily(t *testing.T) {
	want := []string{"interference", "lists", "memcached", "rbtree", "service", "stamp", "stmbench7", "tpcc"}
	got := Families()
	if len(got) != len(want) {
		t.Fatalf("families = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("families = %v, want %v", got, want)
		}
	}
}

// TestRegistryNamesMatchWorkloads checks that scenario names agree with
// the workload's own Name method where one exists.
func TestRegistryNamesMatchWorkloads(t *testing.T) {
	for _, s := range All() {
		wl, err := s.Make(nil)
		if err != nil {
			t.Fatalf("%s: Make(defaults): %v", s.Name, err)
		}
		if s.Name == "interference" {
			continue // wraps a victim workload with a different name
		}
		if got := wl.Name(); got != s.Name {
			t.Errorf("scenario %q built workload %q", s.Name, got)
		}
	}
}

// TestEveryScenarioSetsUp constructs and sets up every scenario at small
// parameterizations, so a registration with a broken Make or schema fails
// loudly here rather than at the CLI.
func TestEveryScenarioSetsUp(t *testing.T) {
	small := map[string]Values{
		"rbtree":          {"keyrange": "256"},
		"skiplist":        {"keyrange": "256"},
		"linkedlist":      {"keyrange": "64"},
		"hashmap":         {"buckets": "64", "keyrange": "256"},
		"genome":          {"segments": "256"},
		"intruder":        {"flows": "64"},
		"kmeans":          {"clusters": "4"},
		"labyrinth":       {"grid": "1024", "path": "16"},
		"ssca2":           {"vertices": "512"},
		"vacation":        {"relations": "256"},
		"yada":            {"elements": "512"},
		"bayes":           {"nodes": "128"},
		"stmbench7":       {"depth": "3"},
		"tpcc":            {"warehouses": "2", "customers": "16", "items": "256"},
		"memcached":       {"buckets": "64", "keyrange": "256"},
		"interference":    {"keyrange": "256"},
		"service-kv":      {"keyrange": "256", "span": "32", "phaseops": "64"},
		"service-steady":  {"keyrange": "256", "span": "32", "mix": "mixed"},
		"service-sharded": {"shards": "2", "keyrange": "256", "span": "16", "batchevery": "8"},
		"service-chaos":   {"shards": "2", "keyrange": "256", "crossevery": "8", "faultevery": "2", "faultcount": "2", "deadlineops": "16"},
		"service-range":   {"partitioner": "range", "shards": "2", "keyrange": "256", "span": "16", "batchevery": "8"},
		"service-reshard": {"shards": "2", "maxshards": "3", "keyrange": "256", "splitevery": "32", "refreshevery": "8", "migratebatch": "8", "crossevery": "8"},
		"service-merge":   {"shards": "3", "minshards": "2", "keyrange": "256", "mergeevery": "32", "refreshevery": "8", "migratebatch": "8", "crossevery": "8"},
		"service-hotkey":  {"partitioner": "range", "shards": "2", "keyrange": "256", "hotspan": "32", "moveevery": "16", "span": "16", "batchevery": "8"},
		"service-diurnal": {"keyrange": "256", "span": "16", "periodops": "64"},
		"service-slo":     {"keyrange": "256", "span": "16", "mix": "scan-heavy"},
	}
	for _, s := range All() {
		v, ok := small[s.Name]
		if !ok {
			t.Fatalf("scenario %q has no small parameterization in this test — add one", s.Name)
		}
		if err := s.Validate(v); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		wl, err := s.Make(v)
		if err != nil {
			t.Fatalf("%s: Make: %v", s.Name, err)
		}
		pool := polytm.New(1<<20, 2, DefaultConfig(2))
		if err := wl.Setup(pool.Heap(), workloads.NewRand(1)); err != nil {
			t.Fatalf("%s: Setup: %v", s.Name, err)
		}
		wl.Op(pool, 0, workloads.NewRand(2))
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	s, _ := Lookup("rbtree")
	if err := s.Validate(Values{"nosuch": "1"}); err == nil {
		t.Error("unknown key accepted")
	} else if !strings.Contains(err.Error(), "keyrange") {
		t.Errorf("error should list valid parameters, got: %v", err)
	}
	if err := s.Validate(Values{"keyrange": "many"}); err == nil {
		t.Error("non-int value accepted")
	}
	if err := s.Validate(Values{"update": "0.5"}); err != nil {
		t.Errorf("valid value rejected: %v", err)
	}
}

func TestParseAssignments(t *testing.T) {
	v, err := ParseAssignments([]string{"a=1,b=2", "c=x"})
	if err != nil {
		t.Fatal(err)
	}
	if v["a"] != "1" || v["b"] != "2" || v["c"] != "x" {
		t.Fatalf("got %v", v)
	}
	if v.String() != "a=1,b=2,c=x" {
		t.Fatalf("String() = %q", v.String())
	}
	if _, err := ParseAssignments([]string{"oops"}); err == nil {
		t.Error("missing '=' accepted")
	}
}
