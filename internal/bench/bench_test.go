package bench_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/htm"
	"repro/internal/polytm"
)

// TestAlgorithmNamesParse: every backend the micro suite runs is named as
// config.ParseAlg knows it, and bench.NewAlgorithm returns the backend
// PolyTM's constructor builds for that id.
func TestAlgorithmNamesParse(t *testing.T) {
	for _, name := range bench.AlgorithmNames {
		id, err := config.ParseAlg(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bench.NewAlgorithm(name).Name(), polytm.NewAlgorithm(id, nil).Name(); got != name || want != name {
			t.Errorf("%q: bench.NewAlgorithm builds %q, polytm.NewAlgorithm(%v) %q", name, got, id, want)
		}
	}
	if b, p := bench.NewAlgorithm("htm").(*htm.HTM).CM.Get(); b != 5 || p != htm.PolicyDecrease {
		t.Errorf("htm runs budget %d policy %v, want 5 decr", b, p)
	}
}
