package polytm_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/htm"
	"repro/internal/polytm"
	"repro/internal/tm"
)

func baseCfg(alg config.AlgID, threads int) config.Config {
	return config.Config{Alg: alg, Threads: threads, Budget: 5, Policy: htm.PolicyDecrease}
}

// TestAtomicBasic checks the dispatch path commits a simple transaction
// under every backend.
func TestAtomicBasic(t *testing.T) {
	for alg := config.AlgID(0); int(alg) < config.NumAlgs; alg++ {
		p := polytm.New(1024, 2, baseCfg(alg, 2))
		a := p.Heap().MustAlloc(1)
		p.Atomic(0, func(tx tm.Txn) {
			tx.Store(a, 5)
		})
		p.Atomic(1, func(tx tm.Txn) {
			v := tx.Load(a)
			tx.Store(a, v*2)
		})
		if got := p.Heap().LoadWord(a); got != 10 {
			t.Errorf("%v: got %d, want 10", alg, got)
		}
	}
}

// TestSwitchUnderLoad runs counters under continuous load while the adapter
// cycles through every TM algorithm and several parallelism degrees; the
// final counter total must equal the number of committed increments.
func TestSwitchUnderLoad(t *testing.T) {
	const workers = 8
	p := polytm.New(4096, workers, baseCfg(config.TL2, workers))
	base := p.Heap().MustAlloc(8)
	var done atomic.Bool
	var committed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := p.Ctx(id)
			for !done.Load() {
				slot := tm.Addr(c.Rand() % 8)
				p.Atomic(id, func(tx tm.Txn) {
					v := tx.Load(base + slot)
					tx.Store(base+slot, v+1)
				})
				committed.Add(1)
			}
		}(w)
	}

	cfgs := []config.Config{
		baseCfg(config.TinySTM, 4),
		baseCfg(config.NOrec, 2),
		baseCfg(config.HTM, 8),
		baseCfg(config.SwissTM, 3),
		baseCfg(config.Hybrid, 6),
		baseCfg(config.TL2, 1),
		baseCfg(config.GlobalLock, 5),
		baseCfg(config.HTM, 7),
	}
	for _, cfg := range cfgs {
		time.Sleep(5 * time.Millisecond)
		if err := p.Reconfigure(cfg); err != nil {
			t.Fatalf("Reconfigure(%v): %v", cfg, err)
		}
		if got := p.Config(); got != cfg {
			t.Fatalf("Config() = %v, want %v", got, cfg)
		}
	}
	// Finish with full parallelism so all workers can observe done.
	if err := p.Reconfigure(baseCfg(config.TL2, workers)); err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	wg.Wait()

	var total uint64
	for i := 0; i < 8; i++ {
		total += p.Heap().LoadWord(base + tm.Addr(i))
	}
	if total != committed.Load() {
		t.Errorf("counter total %d != committed transactions %d", total, committed.Load())
	}
	if s := p.SnapshotStats(); s.Commits != committed.Load() {
		t.Errorf("stats commits %d != %d", s.Commits, committed.Load())
	}
}

// TestParallelismDegree verifies that at most cfg.Threads workers execute
// transactions concurrently after a reconfiguration.
func TestParallelismDegree(t *testing.T) {
	const workers = 6
	p := polytm.New(1024, workers, baseCfg(config.NOrec, 2))
	a := p.Heap().MustAlloc(1)
	var inTx, maxInTx atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for !done.Load() {
				p.Atomic(id, func(tx tm.Txn) {
					n := inTx.Add(1)
					for {
						m := maxInTx.Load()
						if n <= m || maxInTx.CompareAndSwap(m, n) {
							break
						}
					}
					_ = tx.Load(a)
					time.Sleep(100 * time.Microsecond)
					inTx.Add(-1)
				})
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond)
	observed := maxInTx.Load()
	if observed > 2 {
		t.Errorf("with 2 allowed threads observed %d concurrent transactions", observed)
	}
	// Re-open all workers so they can exit (aborted attempts re-run the
	// body, hence inTx may briefly exceed on retried attempts; NOrec
	// read-only never aborts here).
	if err := p.Reconfigure(baseCfg(config.NOrec, workers)); err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	wg.Wait()
}

// TestNonStoppable verifies an exempted thread survives parallelism
// reductions.
func TestNonStoppable(t *testing.T) {
	p := polytm.New(1024, 4, baseCfg(config.TL2, 4))
	p.SetNonStoppable(3, true)
	if err := p.Reconfigure(baseCfg(config.TL2, 1)); err != nil {
		t.Fatal(err)
	}
	a := p.Heap().MustAlloc(1)
	doneCh := make(chan struct{})
	go func() {
		p.Atomic(3, func(tx tm.Txn) { tx.Store(a, 1) }) // must not block
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("non-stoppable thread was blocked by parallelism reduction")
	}
}

// TestReconfigureValidation checks range errors.
func TestReconfigureValidation(t *testing.T) {
	p := polytm.New(1024, 4, baseCfg(config.TL2, 4))
	if err := p.Reconfigure(baseCfg(config.TL2, 0)); err == nil {
		t.Error("expected error for 0 threads")
	}
	if err := p.Reconfigure(baseCfg(config.TL2, 5)); err == nil {
		t.Error("expected error for threads > max")
	}
}

// TestCMReconfigureIsImmediate verifies a contention-management-only change
// does not quiesce threads (it completes while a transaction is running).
func TestCMReconfigureIsImmediate(t *testing.T) {
	p := polytm.New(4096, 2, baseCfg(config.HTM, 2))
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		first := true
		p.Atomic(0, func(tx tm.Txn) {
			if first {
				first = false
				close(started)
				<-release
			}
		})
	}()
	<-started
	cfg := baseCfg(config.HTM, 2)
	cfg.Budget = 16
	cfg.Policy = htm.PolicyHalve
	done := make(chan error, 1)
	go func() { done <- p.Reconfigure(cfg) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CM-only reconfiguration blocked on a running transaction")
	}
	close(release)
}

// TestPanickingBlockLeavesPoolLive: an atomic block that panics (here with
// the heap's own exhaustion error, the way a node pool does) must reach the
// caller with its attempt aborted and the thread gate left, on every backend
// and on HTM's fallback path too: a second thread then commits on the same
// words, the panicking slot commits again, and SnapshotStats and Reconfigure
// — which wait on the RUN bit — return.
func TestPanickingBlockLeavesPoolLive(t *testing.T) {
	cfgs := make(map[string]config.Config)
	for alg := config.AlgID(0); int(alg) < config.NumAlgs; alg++ {
		cfgs[alg.String()] = baseCfg(alg, 2)
	}
	cfgs["htm-fallback"] = config.Config{Alg: config.HTM, Threads: 2} // budget 0: every attempt takes the fallback lock
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			p := polytm.New(64, 2, cfg)
			a := p.Heap().MustAlloc(1)
			var got any
			func() {
				defer func() { got = recover() }()
				p.Atomic(0, func(tx tm.Txn) {
					tx.Store(a, tx.Load(a)+7)
					p.Heap().MustAlloc(1 << 10)
				})
			}()
			if err, ok := got.(error); !ok || !errors.Is(err, tm.ErrHeapExhausted) {
				t.Fatalf("recovered %v, want the heap-exhausted error", got)
			}
			live := make(chan struct{})
			go func() {
				defer close(live)
				p.Atomic(1, func(tx tm.Txn) { tx.Store(a, tx.Load(a)+1) })
				p.Atomic(0, func(tx tm.Txn) { tx.Store(a, tx.Load(a)+1) })
				if st := p.SnapshotStats(); st.Commits != 2 {
					t.Errorf("commits = %d, want 2 (the panicking block must not count)", st.Commits)
				}
				next := baseCfg((cfg.Alg+1)%config.AlgID(config.NumAlgs), 1)
				if err := p.Reconfigure(next); err != nil {
					t.Error(err)
				}
				p.Atomic(0, func(tx tm.Txn) { tx.Store(a, tx.Load(a)+1) })
			}()
			select {
			case <-live:
			case <-time.After(5 * time.Second):
				t.Fatal("pool wedged after a panicking atomic block")
			}
			// The global lock writes in place and cannot roll back; every
			// other backend must have discarded the panicking block's store.
			want := uint64(3)
			if cfg.Alg == config.GlobalLock {
				want += 7
			}
			if v := p.Heap().LoadWord(a); v != want {
				t.Errorf("word = %d, want %d", v, want)
			}
		})
	}
}
