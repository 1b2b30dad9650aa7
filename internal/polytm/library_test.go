package polytm

import (
	"testing"

	"repro/internal/config"
	"repro/internal/htm"
)

// TestOneLibrary: the pool installs, for every id, the backend NewAlgorithm
// builds for it, whose name config.ParseAlg maps back to the id; the HTM
// backends share the pool's contention manager.
func TestOneLibrary(t *testing.T) {
	p := New(64, 1, config.Config{Alg: config.TL2, Threads: 1})
	for id := config.AlgID(0); int(id) < config.NumAlgs; id++ {
		name := NewAlgorithm(id, nil).Name()
		if got := p.algs[id].Name(); got != name {
			t.Errorf("%v: pool installs %q, NewAlgorithm builds %q", id, got, name)
		}
		if back, err := config.ParseAlg(name); err != nil || back != id {
			t.Errorf("%v: name %q parses to %v (%v)", id, name, back, err)
		}
	}
	if cm := p.algs[config.HTM].(*htm.HTM).CM; cm != p.cm {
		t.Error("HTM does not use the pool's contention manager")
	}
	if cm := p.algs[config.Hybrid].(*htm.Hybrid).CM; cm != p.cm {
		t.Error("Hybrid does not use the pool's contention manager")
	}
}
