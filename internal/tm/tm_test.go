package tm_test

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/tm"
)

// TestWriteSetSemantics property-tests the hybrid linear/map write set
// against a reference map, across the small→indexed transition.
func TestWriteSetSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		var ws tm.WriteSet
		ws.Reset()
		ref := map[tm.Addr]uint64{}
		for i, op := range ops {
			a := tm.Addr(op % 64)
			v := uint64(i)
			ws.Put(a, v)
			ref[a] = v
		}
		if ws.Len() != len(ref) {
			return false
		}
		for a, want := range ref {
			got, ok := ws.Get(a)
			if !ok || got != want {
				return false
			}
		}
		if _, ok := ws.Get(tm.Addr(9999)); ok {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWriteSetReset verifies reuse after reset, including the indexed mode.
func TestWriteSetReset(t *testing.T) {
	var ws tm.WriteSet
	for i := 0; i < 100; i++ { // force map index
		ws.Put(tm.Addr(i), uint64(i))
	}
	ws.Reset()
	if ws.Len() != 0 {
		t.Fatalf("Len after reset = %d", ws.Len())
	}
	if _, ok := ws.Get(5); ok {
		t.Error("stale entry visible after reset")
	}
	ws.Put(7, 70)
	if v, ok := ws.Get(7); !ok || v != 70 {
		t.Error("write set broken after reset")
	}
}

// TestHeapAlloc checks bump allocation, exhaustion, and the reserved null
// word.
func TestHeapAlloc(t *testing.T) {
	h := tm.NewHeap(64, 2)
	a, err := h.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if a == tm.NilAddr {
		t.Error("first allocation returned the nil address")
	}
	b, err := h.Alloc(10)
	if err != nil || b < a+10 {
		t.Errorf("allocations overlap: %d, %d", a, b)
	}
	if _, err := h.Alloc(1000); err == nil {
		t.Error("expected exhaustion error")
	}
	if _, err := h.Alloc(0); err == nil {
		t.Error("expected error for non-positive size")
	}
}

// TestHeapReset verifies a reset heap behaves like a fresh one.
func TestHeapReset(t *testing.T) {
	h := tm.NewHeap(128, 2)
	a := h.MustAlloc(4)
	h.StoreWord(a, 42)
	h.ClockAdd(7)
	h.Reset()
	if h.Clock() != 0 {
		t.Error("clock not reset")
	}
	b := h.MustAlloc(4)
	if h.LoadWord(b) != 0 {
		t.Error("reset heap has dirty words")
	}
	if b != a {
		t.Errorf("allocation cursor not rewound: %d vs %d", b, a)
	}
}

// TestNewCtxRejectsOutOfRangeSlot: every per-slot table is sized by NewHeap,
// so a slot id outside it is refused when the context is made, not when a
// table is first indexed.
func TestNewCtxRejectsOutOfRangeSlot(t *testing.T) {
	h := tm.NewHeap(64, 2)
	for _, id := range []int{-1, 2, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCtx(%d) on a 2-slot heap did not panic", id)
				}
			}()
			tm.NewCtx(id, h)
		}()
	}
	if c := tm.NewCtx(1, h); c.ID != 1 {
		t.Errorf("NewCtx(1).ID = %d", c.ID)
	}
}

// TestStatsStayOneCacheLine: the per-thread counters are padded state; a new
// counter takes the spare word, it does not grow the struct.
func TestStatsStayOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(tm.Stats{}); got != 64 {
		t.Errorf("sizeof(tm.Stats) = %d, want 64", got)
	}
	a := tm.Stats{Commits: 5, Stripes: 40}
	a.Add(tm.Stats{Commits: 1, Stripes: 2})
	if d := a.Sub(tm.Stats{Commits: 2, Stripes: 12}); d.Commits != 4 || d.Stripes != 30 {
		t.Errorf("Add/Sub drop a field: %+v", d)
	}
}

// TestOrecEncoding round-trips the lock-word encoding.
func TestOrecEncoding(t *testing.T) {
	f := func(id uint8, version uint32) bool {
		locked := tm.OrecLockedBy(int(id))
		owner, isLocked := tm.OrecLocked(locked)
		if !isLocked || owner != int(id) {
			return false
		}
		unlocked := tm.OrecUnlocked(uint64(version))
		if _, l := tm.OrecLocked(unlocked); l {
			return false
		}
		return tm.OrecVersion(unlocked) == uint64(version)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStripeMapping: consecutive words within a 2^StripeShift block share a
// stripe; block neighbours get distinct stripes (within table capacity).
func TestStripeMapping(t *testing.T) {
	h := tm.NewHeap(1<<12, 1)
	if h.Stripe(0) != h.Stripe((1<<tm.StripeShift)-1) {
		t.Error("words in the same line map to different stripes")
	}
	if h.Stripe(0) == h.Stripe(1<<tm.StripeShift) {
		t.Error("adjacent lines share a stripe in an undersubscribed table")
	}
}

// TestStatsSnapshot checks windowed accounting.
func TestStatsSnapshot(t *testing.T) {
	var s tm.Stats
	s.IncCommit()
	s.IncCommit()
	s.Record(tm.AbortConflict)
	s.Record(tm.AbortCapacity)
	snap := s.Snapshot()
	if snap.Commits != 2 || snap.Aborts != 2 || snap.ConflictAborts != 1 || snap.CapacityAborts != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	s.IncCommit()
	win := s.Snapshot().Sub(snap)
	if win.Commits != 1 || win.Aborts != 0 {
		t.Errorf("window = %+v", win)
	}
}

// TestAbortCodeStrings covers the stringer.
func TestAbortCodeStrings(t *testing.T) {
	for code, want := range map[tm.AbortCode]string{
		tm.AbortNone:     "none",
		tm.AbortConflict: "conflict",
		tm.AbortCapacity: "capacity",
		tm.AbortExplicit: "explicit",
		tm.AbortFallback: "fallback",
	} {
		if got := code.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", code, got, want)
		}
	}
}

// TestRandDistinctPerCtx: per-thread RNGs must not be correlated.
func TestRandDistinctPerCtx(t *testing.T) {
	h := tm.NewHeap(64, 4)
	a := tm.NewCtx(0, h)
	b := tm.NewCtx(1, h)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Rand() == b.Rand() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d identical draws from distinct contexts", same)
	}
}
