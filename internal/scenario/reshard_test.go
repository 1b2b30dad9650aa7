package scenario

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/config"
)

// reshardSpec is the pinned parameterization of the service-reshard
// golden: splits fire at operations 1500 and 3000, so a 4000-op run
// installs exactly two PlanSplitHeaviest plans (2 -> 4 shards, placement
// epoch 2) and ends with a long post-flip tail in which the client
// replica has re-synced and traffic routes bounce-free under the final
// placement.
func reshardSpec() RunSpec {
	return RunSpec{
		Scenario: "service-reshard",
		Params: Values{
			"shards":       "2",
			"maxshards":    "4",
			"keyrange":     "16384",
			"hottenth":     "600",
			"splitevery":   "1500",
			"refreshevery": "64",
			"migratebatch": "64",
			"crossevery":   "16",
		},
		Seed:       42,
		MaxThreads: 4,
		HeapWords:  1 << 20,
		Ops:        4000,
		Configs:    []config.Config{{Alg: config.TL2, Threads: 4}},
	}
}

// TestServiceReshardDeterminism pins the live-resharding acceptance
// criterion: a fixed seed plans the same splits, migrates the same
// spans, and bounces the same stale-routed operations every run,
// producing byte-identical records across runs and against the
// committed golden. Regenerate with UPDATE_GOLDEN=1 after intentional
// changes.
func TestServiceReshardDeterminism(t *testing.T) {
	const golden = "testdata/service_reshard.golden"
	a, err := Run(reshardSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(reshardSpec())
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := marshalResults(t, a), marshalResults(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("two reshard runs of the same spec differ:\n--- run 1\n%s\n--- run 2\n%s", ja, jb)
	}
	m := a[0].Metrics
	if m["splits_installed"] != 2 || m["placement_epoch"] != 2 {
		t.Fatalf("want 2 installed splits at placement epoch 2: %v", m)
	}
	if m["keys_migrated"] == 0 {
		t.Fatalf("splits installed but no keys migrated: %v", m)
	}
	if m["moved_bounces"] == 0 {
		t.Fatalf("stale replica never bounced — the bugfix path went unexercised: %v", m)
	}
	if m["replica_replans"] != 2 {
		t.Fatalf("replica_replans = %d, want 2 (one re-sync per flip): %v", m["replica_replans"], m)
	}
	if m["splits_blocked"] != 0 || m["splits_skipped"] != 0 {
		t.Fatalf("every scheduled split must install under this spec: %v", m)
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, ja, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (regenerate with UPDATE_GOLDEN=1): %v", golden, err)
	}
	if !bytes.Equal(ja, want) {
		t.Errorf("service-reshard record drifted from %s — if intentional, regenerate with UPDATE_GOLDEN=1.\n--- got\n%s\n--- want\n%s",
			golden, ja, want)
	}
}
