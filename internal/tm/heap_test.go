package tm_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tm"
)

// finalized returns a channel that is closed once a fresh object, dropped
// at once, has been finalized.
func finalized() <-chan struct{} {
	done := make(chan struct{})
	runtime.SetFinalizer(new([16]uint64), func(*[16]uint64) { close(done) })
	return done
}

// collectUntil runs the garbage collector until gone is closed.
func collectUntil(t *testing.T, gone <-chan struct{}) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-gone:
			return
		case <-deadline:
			t.Fatal("a dropped object was never finalized")
		case <-time.After(time.Millisecond):
		}
	}
}

// settle returns once every object that was unreachable when it was called
// has been collected and finalized. The finalizer goroutine takes the whole
// queue at once and promises no order within it, so a fresh object's
// finalizer can run before an older one queued with it; a second fresh
// object, dropped after the first was finalized, is queued after both.
func settle(t *testing.T) {
	t.Helper()
	for range 2 {
		collectUntil(t, finalized())
	}
}

// slotOnly builds a heap and returns one attached slot of it and nothing
// else; heapGone is closed once the Heap is unreachable.
//
//go:noinline
func slotOnly(heapGone chan struct{}) *tm.HTMSlot {
	h := tm.NewHeap(1<<16, 4)
	runtime.SetFinalizer(h, func(*tm.Heap) { close(heapGone) })
	return h.HTMAttach(2)
}

// ctxOnly builds a heap and returns one context of it, attached to the
// simulated HTM, and nothing else.
//
//go:noinline
func ctxOnly() (*tm.Ctx, tm.Addr) {
	h := tm.NewHeap(1<<16, 4)
	c := tm.NewCtx(1, h)
	c.HTM.Slot = h.HTMAttach(c.ID)
	return c, h.MustAlloc(64)
}

// TestArenaOutlivesTheHeap: contexts and writers hold *HTMSlot, not the
// heap, so the memory behind a slot's marks must stay mapped for as long as
// the slot is reachable, whether or not its Heap is.
func TestArenaOutlivesTheHeap(t *testing.T) {
	t.Run("slot", func(t *testing.T) {
		heapGone := make(chan struct{})
		sl := slotOnly(heapGone)
		collectUntil(t, heapGone)
		settle(t) // a released arena would be unmapped by now
		for s := range sl.Marks {
			atomic.StoreUint32(&sl.Marks[s], uint32(s)+1)
		}
		for s := range sl.Marks {
			if got := atomic.LoadUint32(&sl.Marks[s]); got != uint32(s)+1 {
				t.Fatalf("mark %d = %d after the heap was collected, want %d", s, got, s+1)
			}
		}
	})
	t.Run("ctx", func(t *testing.T) {
		c, a := ctxOnly()
		settle(t)
		for i := range tm.Addr(64) {
			c.H.StoreWord(a+i, uint64(i)*3)
		}
		marks := c.HTM.Slot.Marks
		for s := range marks {
			atomic.StoreUint32(&marks[s], 7)
		}
		for i := range tm.Addr(64) {
			if got := c.H.LoadWord(a + i); got != uint64(i)*3 {
				t.Fatalf("word %d = %d, want %d", a+i, got, uint64(i)*3)
			}
		}
		for s := range marks {
			if got := atomic.LoadUint32(&marks[s]); got != 7 {
				t.Fatalf("mark %d = %d, want 7", s, got)
			}
		}
	})
}

// requireZero fails unless every word, orec, read version, writer slot and
// read mark of h reads 0.
func requireZero(t *testing.T, h *tm.Heap, when string) {
	t.Helper()
	for a := range h.Words() {
		if v := h.LoadWord(tm.Addr(a)); v != 0 {
			t.Fatalf("%s: word %d = %d", when, a, v)
		}
	}
	for s := range uint32(h.Stripes()) {
		if v := h.OrecLoad(s); v != 0 {
			t.Fatalf("%s: orec %d = %d", when, s, v)
		}
		if v := h.RVerLoad(s); v != 0 {
			t.Fatalf("%s: rver %d = %d", when, s, v)
		}
		if v := h.WriterLoad(s); v != 0 {
			t.Fatalf("%s: writer %d = %d", when, s, v)
		}
	}
	for id := range h.MaxThreads() {
		marks := h.HTMSlot(id).Marks
		if len(marks) != h.Stripes() {
			t.Fatalf("%s: slot %d has %d marks for %d stripes", when, id, len(marks), h.Stripes())
		}
		for s := range marks {
			if v := atomic.LoadUint32(&marks[s]); v != 0 {
				t.Fatalf("%s: slot %d mark %d = %d", when, id, s, v)
			}
		}
	}
}

// TestHeapStartsAndResetsZeroed: nothing clears a new heap but the memory
// it is made of, and Reset clears everything a run wrote.
func TestHeapStartsAndResetsZeroed(t *testing.T) {
	for _, size := range []struct{ words, threads int }{{1, 1}, {100, 3}, {1 << 12, 5}, {1 << 22, 8}} {
		h := tm.NewHeap(size.words, size.threads)
		requireZero(t, h, "fresh")
		if size.words > 1<<12 {
			continue
		}
		for a := range h.Words() {
			h.StoreWord(tm.Addr(a), ^uint64(a))
		}
		for s := range uint32(h.Stripes()) {
			h.OrecStore(s, tm.OrecLockedBy(1))
			h.RVerStore(s, 9)
			h.WriterStore(s, 2)
		}
		for id := range h.MaxThreads() {
			sl := h.HTMAttach(id)
			for s := range sl.Marks {
				atomic.StoreUint32(&sl.Marks[s], 5)
			}
		}
		h.MustAlloc(4)
		h.Reset()
		requireZero(t, h, "after Reset")
	}
}
