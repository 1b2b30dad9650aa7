package polytm_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/polytm"
	"repro/internal/tm"
)

// TestDisjointAccessParallelism pins the progressiveness the tuned backends
// promise: transactions whose footprints share no stripe never abort each
// other — no conflict, no fallback, nothing spurious from the metadata they
// still share (the version clock, NOrec's sequence lock, the HTM's writer
// scan). The mirror case adds one stripe every transaction reads and nobody
// writes: read-sharing is not a conflict either.
//
// Hybrid is left out on purpose: its one-counter scheme (htm.Hybrid) aborts
// every in-flight hardware transaction at any commit, disjoint or not.
func TestDisjointAccessParallelism(t *testing.T) {
	txns := 100_000
	if testing.Short() {
		txns = 10_000
	}
	algs := []config.AlgID{config.TL2, config.TinySTM, config.NOrec, config.SwissTM, config.HTM, config.GlobalLock}
	for _, alg := range algs {
		for _, threads := range []int{2, 4} {
			for _, shared := range []bool{false, true} {
				mode := map[bool]string{false: "disjoint", true: "shared-read"}[shared]
				t.Run(fmt.Sprintf("%v/%dt/%s", alg, threads, mode), func(t *testing.T) {
					st := runDisjoint(t, alg, threads, txns, shared)
					if st.Commits != uint64(threads*txns) {
						t.Errorf("commits = %d, want %d", st.Commits, threads*txns)
					}
					if st.Aborts != 0 || st.FallbackRuns != 0 {
						t.Errorf("aborts = %d (conflict %d, capacity %d, fallback %d), fallback runs = %d; want none",
							st.Aborts, st.ConflictAborts, st.CapacityAborts, st.FallbackAborts, st.FallbackRuns)
					}
				})
			}
		}
	}
}

// runDisjoint runs txns read-modify-write transactions per thread, each on
// the thread's own eight stripes (and, if shared, one read of a common stripe).
func runDisjoint(t *testing.T, alg config.AlgID, threads, txns int, shared bool) tm.Stats {
	const (
		stripe = 1 << tm.StripeShift
		region = 8 * stripe
	)
	p := polytm.New(1<<12, threads, baseCfg(alg, threads))
	h := p.Heap()
	h.MustAlloc(stripe - 1) // word 0 is taken: start the regions on a stripe
	common := h.MustAlloc(stripe)
	base := h.MustAlloc(threads * region)
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mine := base + tm.Addr(id*region)
			for i := 0; i < txns; i++ {
				a := mine + tm.Addr(i%region)
				b := mine + tm.Addr((i+3*stripe)%region)
				p.Atomic(id, func(tx tm.Txn) {
					v := tx.Load(a) + tx.Load(b)
					if shared {
						v += tx.Load(common)
					}
					tx.Store(a, v+1)
				})
			}
		}(id)
	}
	wg.Wait()
	if got := h.LoadWord(common); got != 0 {
		t.Errorf("the read-only stripe holds %d", got)
	}
	return p.SnapshotStats()
}
