package htm_test

import (
	"sync"
	"testing"

	"repro/internal/htm"
	"repro/internal/stm"
	"repro/internal/tm"
)

// TestCMIsConcurrentlyMutable: contention-management parameters may change
// at any moment without synchronization (§4.3).
func TestCMIsConcurrentlyMutable(t *testing.T) {
	cm := htm.NewCM(5, htm.PolicyGiveUp)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				cm.Set(id+j%8, htm.CapacityPolicy(j%3))
				b, p := cm.Get()
				if b < 0 || p < 0 || p > htm.PolicyHalve {
					t.Errorf("corrupt CM state: %d %v", b, p)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestFallbackSerializesWithHardware: while a fallback transaction holds the
// lock, hardware attempts must abort and eventually take the fallback too,
// preserving the invariant under a workload larger than capacity.
func TestFallbackSerializesWithHardware(t *testing.T) {
	h := tm.NewHeap(1<<14, 4)
	alg := &htm.HTM{WriteCap: 16, ReadCap: 128, CM: htm.NewCM(2, htm.PolicyGiveUp)}
	base := h.MustAlloc(512)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := tm.NewCtx(id, h)
			for i := 0; i < 500; i++ {
				// Transactions alternate between fitting and
				// overflowing capacity.
				n := 4
				if i%3 == 0 {
					n = 64
				}
				tm.Run(alg, c, func(tx tm.Txn) {
					for k := 0; k < n; k++ {
						a := base + tm.Addr((k*8+id)%512)
						tx.Store(a, tx.Load(a)+1)
					}
				})
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < 512; i++ {
		total += h.LoadWord(base + tm.Addr(i))
	}
	// 4 workers × 500 txs; every 3rd writes 64 words, others 4.
	want := uint64(4 * (167*64 + 333*4))
	if total != want {
		t.Errorf("sum = %d, want %d", total, want)
	}
}

// TestNaiveHTMSlower: the Table-4 ablation only makes sense if the fully
// instrumented path is measurably more expensive per access.
func TestNaiveHTMSlower(t *testing.T) {
	run := func(alg tm.Algorithm) int {
		h := tm.NewHeap(1<<14, 1)
		base := h.MustAlloc(1024)
		c := tm.NewCtx(0, h)
		ops := 0
		for i := 0; i < 20000; i++ {
			tm.Run(alg, c, func(tx tm.Txn) {
				for k := tm.Addr(0); k < 16; k++ {
					tx.Store(base+k*8, tx.Load(base+k*8)+1)
				}
			})
			ops++
		}
		return ops
	}
	// Functional equivalence is what we assert here (both complete the
	// same work); relative cost is measured by BenchmarkTable4.
	fast := run(&htm.HTM{CM: htm.NewCM(5, htm.PolicyDecrease)})
	slow := run(&htm.NaiveHTM{HTM: htm.HTM{CM: htm.NewCM(5, htm.PolicyDecrease)}})
	if fast != slow {
		t.Errorf("naive and optimized paths diverge: %d vs %d ops", fast, slow)
	}
}

// TestHybridCoordinatesWithSequenceLock: the hybrid's hardware path must
// observe software commits through the shared sequence lock.
func TestHybridCoordinatesWithSequenceLock(t *testing.T) {
	h := tm.NewHeap(1<<12, 4)
	hy := &htm.Hybrid{CM: htm.NewCM(3, htm.PolicyDecrease)}
	hy.SetSlowPath(stm.NOrec{})
	base := h.MustAlloc(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := tm.NewCtx(id, h)
			for i := 0; i < 2000; i++ {
				slot := tm.Addr((id*16 + i%16))
				tm.Run(hy, c, func(tx tm.Txn) {
					tx.Store(base+slot, tx.Load(base+slot)+1)
				})
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < 64; i++ {
		total += h.LoadWord(base + tm.Addr(i))
	}
	if total != 8000 {
		t.Errorf("sum = %d, want 8000", total)
	}
}

// TestHTMAndHybridChargeAlike: both backends run one copy of §4.3's policy
// code, so one aborted hardware attempt leaves the same retry budget under
// each — the policy's for a capacity abort, one less for a conflict abort —
// and a nil contention manager means a budget of 5 and PolicyDecrease.
func TestHTMAndHybridChargeAlike(t *testing.T) {
	for _, tc := range []struct {
		cm                 *htm.CM
		capacity, conflict int
	}{
		{htm.NewCM(7, htm.PolicyGiveUp), 0, 6},
		{htm.NewCM(7, htm.PolicyDecrease), 6, 6},
		{htm.NewCM(7, htm.PolicyHalve), 3, 6},
		{nil, 4, 4},
	} {
		hy := &htm.Hybrid{CM: tc.cm}
		hy.SetSlowPath(stm.NOrec{})
		for _, alg := range []tm.Algorithm{&htm.HTM{CM: tc.cm}, hy} {
			for reason, want := range map[tm.AbortCode]int{tm.AbortCapacity: tc.capacity, tm.AbortConflict: tc.conflict} {
				c := tm.NewCtx(0, tm.NewHeap(64, 1))
				c.TxnID++
				alg.Begin(c)
				c.AbortReason = reason
				alg.Abort(c)
				if c.HTM.Budget != want {
					t.Errorf("%s, cm %v, abort %v: budget %d, want %d", alg.Name(), tc.cm, reason, c.HTM.Budget, want)
				}
			}
		}
	}
}

// TestPolicyStrings covers the stringers.
func TestPolicyStrings(t *testing.T) {
	want := map[htm.CapacityPolicy]string{
		htm.PolicyGiveUp:   "giveup",
		htm.PolicyDecrease: "decr",
		htm.PolicyHalve:    "half",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%v.String() = %q, want %q", int32(p), p.String(), s)
		}
	}
}
