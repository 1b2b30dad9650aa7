package stm_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/htm"
	"repro/internal/stm"
	"repro/internal/tm"
)

// algorithms returns a fresh instance of every TM backend under test.
func algorithms() map[string]tm.Algorithm {
	hy := &htm.Hybrid{CM: htm.NewCM(5, htm.PolicyDecrease)}
	hy.SetSlowPath(stm.NOrec{})
	return map[string]tm.Algorithm{
		"tl2":    stm.TL2{},
		"tiny":   stm.TinySTM{},
		"norec":  stm.NOrec{},
		"swiss":  stm.SwissTM{},
		"gl":     &stm.GlobalLock{},
		"htm":    &htm.HTM{CM: htm.NewCM(5, htm.PolicyDecrease)},
		"hybrid": hy,
	}
}

// TestReadAfterWrite checks that a transaction observes its own writes.
func TestReadAfterWrite(t *testing.T) {
	for name, alg := range algorithms() {
		t.Run(name, func(t *testing.T) {
			h := tm.NewHeap(1024, 4)
			a := h.MustAlloc(2)
			c := tm.NewCtx(0, h)
			tm.Run(alg, c, func(tx tm.Txn) {
				tx.Store(a, 41)
				got := tx.Load(a)
				if got != 41 {
					t.Errorf("read-after-write: got %d, want 41", got)
				}
				tx.Store(a, got+1)
			})
			if got := h.LoadWord(a); got != 42 {
				t.Errorf("after commit: got %d, want 42", got)
			}
		})
	}
}

// TestBankTransfers is the classic TM serializability stress test: n
// accounts, concurrent random transfers, total balance must be invariant.
func TestBankTransfers(t *testing.T) {
	const (
		threads   = 8
		accounts  = 64
		transfers = 3000
		initial   = 1000
	)
	for name, alg := range algorithms() {
		t.Run(name, func(t *testing.T) {
			h := tm.NewHeap(4096, threads)
			base := h.MustAlloc(accounts)
			for i := 0; i < accounts; i++ {
				h.StoreWord(base+tm.Addr(i), initial)
			}
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					c := tm.NewCtx(id, h)
					for i := 0; i < transfers; i++ {
						from := tm.Addr(c.Rand() % accounts)
						to := tm.Addr(c.Rand() % accounts)
						if from == to {
							continue
						}
						tm.Run(alg, c, func(tx tm.Txn) {
							f := tx.Load(base + from)
							g := tx.Load(base + to)
							tx.Store(base+from, f-10)
							tx.Store(base+to, g+10)
						})
					}
				}(w)
			}
			wg.Wait()
			var total uint64
			for i := 0; i < accounts; i++ {
				total += h.LoadWord(base + tm.Addr(i))
			}
			if total != accounts*initial {
				t.Errorf("total balance %d, want %d", total, accounts*initial)
			}
		})
	}
}

// TestSnapshotConsistency checks opacity-style consistency: two words are
// always updated together by writers; readers must never observe them
// unequal.
func TestSnapshotConsistency(t *testing.T) {
	const iters = 4000
	for name, alg := range algorithms() {
		t.Run(name, func(t *testing.T) {
			h := tm.NewHeap(1024, 4)
			x := h.MustAlloc(1)
			// Place y far from x so they live in different stripes.
			h.MustAlloc(64)
			y := h.MustAlloc(1)
			var wg sync.WaitGroup
			stopped := make(chan struct{})
			var violation int64
			wg.Add(1)
			go func() { // writer
				defer wg.Done()
				c := tm.NewCtx(0, h)
				for i := 0; i < iters; i++ {
					tm.Run(alg, c, func(tx tm.Txn) {
						v := tx.Load(x)
						tx.Store(x, v+1)
						tx.Store(y, v+1)
					})
				}
				close(stopped)
			}()
			for r := 1; r <= 2; r++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					c := tm.NewCtx(id, h)
					for {
						select {
						case <-stopped:
							return
						default:
						}
						tm.Run(alg, c, func(tx tm.Txn) {
							a := tx.Load(x)
							b := tx.Load(y)
							if a != b {
								atomic.AddInt64(&violation, 1)
							}
						})
					}
				}(r)
			}
			wg.Wait()
			if v := atomic.LoadInt64(&violation); v != 0 {
				t.Errorf("%s: %d snapshot violations (x != y observed)", name, v)
			}
		})
	}
}

// TestExplicitRetryRestoresState verifies that an aborted attempt leaves no
// published writes behind (write-back semantics). GlobalLock is exempt: it
// writes in place and PolyTM forbids explicit retry under it.
func TestExplicitRetryRestoresState(t *testing.T) {
	for name, alg := range algorithms() {
		if name == "gl" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			h := tm.NewHeap(1024, 4)
			a := h.MustAlloc(1)
			h.StoreWord(a, 7)
			c := tm.NewCtx(0, h)
			first := true
			tm.Run(alg, c, func(tx tm.Txn) {
				tx.Store(a, 99)
				if first {
					first = false
					if h.LoadWord(a) != 7 {
						t.Errorf("%s: uncommitted write visible in place", name)
					}
					c.Retry(tm.AbortExplicit)
				}
			})
			if got := h.LoadWord(a); got != 99 {
				t.Errorf("after final commit: got %d, want 99", got)
			}
			if c.Stats.Snapshot().ExplicitAborts != 1 {
				t.Errorf("explicit abort not recorded")
			}
		})
	}
}

// TestHTMCapacityAbort verifies that transactions exceeding the write
// capacity take capacity aborts and eventually commit on the fallback path.
func TestHTMCapacityAbort(t *testing.T) {
	h := tm.NewHeap(1<<16, 2)
	alg := &htm.HTM{WriteCap: 8, ReadCap: 64, CM: htm.NewCM(3, htm.PolicyGiveUp)}
	base := h.MustAlloc(1 << 12)
	c := tm.NewCtx(0, h)
	tm.Run(alg, c, func(tx tm.Txn) {
		for i := 0; i < 256; i++ {
			tx.Store(base+tm.Addr(i*8), uint64(i))
		}
	})
	s := c.Stats.Snapshot()
	if s.CapacityAborts == 0 {
		t.Errorf("expected capacity aborts, got %+v", s)
	}
	if s.FallbackRuns == 0 {
		t.Errorf("expected fallback execution, got %+v", s)
	}
	for i := 0; i < 256; i++ {
		if got := h.LoadWord(base + tm.Addr(i*8)); got != uint64(i) {
			t.Fatalf("word %d: got %d", i, got)
		}
	}
}

// TestHTMGiveUpVsLinear checks that the capacity policies manage the budget
// differently: GiveUp falls back on the first capacity abort, Decrease burns
// the budget linearly.
func TestHTMGiveUpVsLinear(t *testing.T) {
	run := func(policy htm.CapacityPolicy) tm.Stats {
		h := tm.NewHeap(1<<16, 2)
		alg := &htm.HTM{WriteCap: 4, ReadCap: 64, CM: htm.NewCM(8, policy)}
		base := h.MustAlloc(1 << 12)
		c := tm.NewCtx(0, h)
		tm.Run(alg, c, func(tx tm.Txn) {
			for i := 0; i < 64; i++ {
				tx.Store(base+tm.Addr(i*8), 1)
			}
		})
		return c.Stats.Snapshot()
	}
	giveUp := run(htm.PolicyGiveUp)
	linear := run(htm.PolicyDecrease)
	if giveUp.CapacityAborts != 1 {
		t.Errorf("GiveUp: want exactly 1 capacity abort, got %d", giveUp.CapacityAborts)
	}
	if linear.CapacityAborts != 8 {
		t.Errorf("Decrease: want 8 capacity aborts (budget 8), got %d", linear.CapacityAborts)
	}
}

// TestReadOnlyCommits checks read-only transactions commit without aborts in
// the absence of writers.
func TestReadOnlyCommits(t *testing.T) {
	for name, alg := range algorithms() {
		t.Run(name, func(t *testing.T) {
			h := tm.NewHeap(1024, 4)
			base := h.MustAlloc(16)
			c := tm.NewCtx(0, h)
			var sum uint64
			for i := 0; i < 100; i++ {
				tm.Run(alg, c, func(tx tm.Txn) {
					sum = 0
					for j := 0; j < 16; j++ {
						sum += tx.Load(base + tm.Addr(j))
					}
				})
			}
			if s := c.Stats.Snapshot(); s.Aborts != 0 {
				t.Errorf("unexpected aborts in uncontended read-only run: %+v", s)
			}
			if sum != 0 {
				t.Errorf("sum of zeroed heap = %d", sum)
			}
		})
	}
}

// TestRunReleasesAPanickingBlock: tm.Run lets a panic raised by the block
// itself through, but only after aborting the attempt — a second thread must
// then be able to write the same word (no encounter lock, writer slot or
// global lock left behind), and the panicking thread to run again.
func TestRunReleasesAPanickingBlock(t *testing.T) {
	for name, alg := range algorithms() {
		t.Run(name, func(t *testing.T) {
			h := tm.NewHeap(1024, 4)
			a := h.MustAlloc(1)
			c0, c1 := tm.NewCtx(0, h), tm.NewCtx(1, h)
			boom := "boom"
			func() {
				defer func() {
					if r := recover(); r != boom {
						t.Errorf("recovered %v, want %q", r, boom)
					}
				}()
				tm.Run(alg, c0, func(tx tm.Txn) {
					tx.Store(a, tx.Load(a)+7)
					panic(boom)
				})
			}()
			done := make(chan struct{})
			go func() {
				defer close(done)
				tm.Run(alg, c1, func(tx tm.Txn) { tx.Store(a, tx.Load(a)+1) })
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("second thread blocked behind the panicked attempt")
			}
			tm.Run(alg, c0, func(tx tm.Txn) { tx.Store(a, tx.Load(a)+1) })
			want := uint64(2)
			if name == "gl" {
				want += 7 // in-place writes are not rolled back
			}
			if got := h.LoadWord(a); got != want {
				t.Errorf("word = %d, want %d", got, want)
			}
		})
	}
}
