package htm_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/htm"
	"repro/internal/tm"
)

// The conflict protocol of the simulated HTM (per-slot, epoch-stamped read
// marks; see the note above doomReaders), driven by hand: an attempt of one
// context runs, through nested calls, inside the atomic block of another, so
// every interleaving below is exact and repeats.

func newHTM() *htm.HTM { return &htm.HTM{CM: htm.NewCM(5, htm.PolicyDecrease)} }

// Two words in different stripes of a 64-word heap; a writer keeps them equal.
const (
	wordX tm.Addr = 8
	wordY tm.Addr = 16
)

// attempt runs one attempt of fn on c as a new transaction (so the retry
// budget is full and the attempt is a hardware one) and releases it if it
// failed.
func attempt(alg tm.Algorithm, c *tm.Ctx, fn func(tm.Txn)) (tm.AbortCode, bool) {
	c.TxnID++
	alg.Begin(c)
	code, ok, foreign := tm.Attempt(alg, c, fn)
	if foreign != nil {
		panic(foreign)
	}
	if !ok {
		c.AbortReason = code
		alg.Abort(c)
	}
	return code, ok
}

func writeBoth(t *testing.T, alg tm.Algorithm, w *tm.Ctx, v uint64) {
	t.Helper()
	if code, ok := attempt(alg, w, func(tx tm.Txn) {
		tx.Store(wordX, v)
		tx.Store(wordY, v)
	}); !ok {
		t.Fatalf("writer aborted (%v) with no live conflict", code)
	}
}

// readerDoomedByWriter: the reader marks x, a writer then claims x and y and
// commits — the reader's next access must abort it, not hand it the new y
// beside the old x.
func readerDoomedByWriter(t *testing.T, slots, reader, writer int) {
	t.Helper()
	h := tm.NewHeap(64, slots)
	alg := newHTM()
	r, w := tm.NewCtx(reader, h), tm.NewCtx(writer, h)
	escaped := false
	code, ok := attempt(alg, r, func(tx tm.Txn) {
		if v := tx.Load(wordX); v != 0 {
			t.Fatalf("x = %d before any write", v)
		}
		writeBoth(t, alg, w, 1)
		tx.Load(wordY)
		escaped = true
	})
	if ok || escaped || code != tm.AbortConflict {
		t.Fatalf("reader slot %d vs writer slot %d: ok=%v code=%v, a torn read escaped=%v; want a conflict abort at the read of y",
			reader, writer, ok, code, escaped)
	}
	if got := r.HTM.Slot.Doom.Load(); got != r.HTM.Epoch {
		t.Fatalf("doom = %#x, want the reader's epoch %#x", got, r.HTM.Epoch)
	}
}

func TestReaderMarkedThenWriterClaims(t *testing.T) { readerDoomedByWriter(t, 2, 1, 0) }

// TestHTMConflictBeyond64Slots: the reader bitmap this protocol replaced kept
// one bit per slot modulo 64, so slot 64 shared slot 0's bit, the writer
// masked "itself" out and the conflict went unseen by both.
func TestHTMConflictBeyond64Slots(t *testing.T) {
	readerDoomedByWriter(t, 65, 64, 0)
	readerDoomedByWriter(t, 65, 0, 64)
}

// TestWriterClaimedThenReaderArrives: a reader that finds the line claimed
// aborts itself and the writer commits, sweeping no reader at commit, so the
// reader's doom word is untouched. A doom that names the reader's dead attempt
// E must not touch attempt E+1 — the flag this replaced was cleared at Begin,
// so a doom landing after Begin killed the wrong attempt.
func TestWriterClaimedThenReaderArrives(t *testing.T) {
	h := tm.NewHeap(64, 2)
	alg := newHTM()
	r, w := tm.NewCtx(0, h), tm.NewCtx(1, h)
	var dead uint64
	if code, ok := attempt(alg, w, func(tx tm.Txn) {
		tx.Store(wordX, 1)
		code, ok := attempt(alg, r, func(tx tm.Txn) {
			t.Errorf("reader got x = %d from a line with a speculative writer", tx.Load(wordX))
		})
		if ok || code != tm.AbortConflict {
			t.Fatalf("reader: ok=%v code=%v, want a conflict abort", ok, code)
		}
		dead = r.HTM.Epoch
		tx.Store(wordY, 1)
	}); !ok {
		t.Fatalf("writer aborted (%v): the reader that backed off must not doom it", code)
	}
	if got := r.HTM.Slot.Doom.Load(); got != 0 {
		t.Fatalf("doom = %#x, want it untouched: the reader backed off before the commit", got)
	}
	var x, y uint64
	if code, ok := attempt(alg, r, func(tx tm.Txn) {
		x = tx.Load(wordX)
		r.HTM.Slot.DoomEpoch(dead) // and one that lands mid-attempt
		y = tx.Load(wordY)
	}); !ok {
		t.Fatalf("attempt %#x aborted (%v) by a doom for attempt %#x", r.HTM.Epoch, code, dead)
	}
	if r.HTM.Epoch != dead+1 || x != 1 || y != 1 {
		t.Fatalf("epoch %#x (want %#x), read x=%d y=%d (want 1 1)", r.HTM.Epoch, dead+1, x, y)
	}
}

// TestReaderMarksBetweenClaims: the writer claims x, the reader marks y, the
// writer claims y — its claim-time sweep dooms the reader — and the reader's
// read of x finds the claim. The reader aborts without the new x beside the
// old y, and the writer commits without a second sweep: its commit writes no
// doom word.
func TestReaderMarksBetweenClaims(t *testing.T) {
	h := tm.NewHeap(64, 2)
	alg := newHTM()
	r, w := tm.NewCtx(0, h), tm.NewCtx(1, h)
	var doomed uint64
	if code, ok := attempt(alg, w, func(tx tm.Txn) {
		tx.Store(wordX, 1)
		r.TxnID++
		alg.Begin(r)
		if y := alg.Load(r, wordY); y != 0 {
			t.Fatalf("reader got y = %d before any commit", y)
		}
		tx.Store(wordY, 1)
		if doomed = r.HTM.Slot.Doom.Load(); doomed != r.HTM.Epoch {
			t.Fatalf("doom = %#x after the claim of y, want the reader's epoch %#x", doomed, r.HTM.Epoch)
		}
		escaped := false
		code, ok, _ := tm.Attempt(alg, r, func(rx tm.Txn) {
			rx.Load(wordX)
			escaped = true
		})
		if ok || escaped || code != tm.AbortConflict {
			t.Fatalf("reader: ok=%v code=%v escaped=%v, want a conflict abort at the read of x", ok, code, escaped)
		}
		r.AbortReason = code
		alg.Abort(r)
	}); !ok {
		t.Fatalf("writer aborted (%v): the reader that backed off must not doom it", code)
	}
	if got := r.HTM.Slot.Doom.Load(); got != doomed {
		t.Fatalf("doom = %#x after the commit, want %#x from the claim of y", got, doomed)
	}
	if w.HTM.Slot.Doom.Load() != 0 {
		t.Fatalf("writer doomed: %#x", w.HTM.Slot.Doom.Load())
	}
}

// TestReadCapacityCountsDistinctStripes: the capacity abort fires at the read
// of stripe DefaultReadCap+1, re-reads are free, and Stats.Stripes is the
// distinct count of a committed attempt.
func TestReadCapacityCountsDistinctStripes(t *testing.T) {
	const stride = 1 << tm.StripeShift
	h := tm.NewHeap((htm.DefaultReadCap+2)*stride, 1)
	alg := newHTM()
	c := tm.NewCtx(0, h)
	read := func(tx tm.Txn, stripes int) {
		for i := 0; i < stripes; i++ {
			tx.Load(tm.Addr(i * stride))
			tx.Load(tm.Addr(i*stride + 1))
		}
	}
	if code, ok := attempt(alg, c, func(tx tm.Txn) {
		read(tx, htm.DefaultReadCap)
		read(tx, htm.DefaultReadCap)
		tx.Store(0, 1)                                  // a stripe already read
		tx.Store(tm.Addr(htm.DefaultReadCap*stride), 1) // one never read
	}); !ok {
		t.Fatalf("%d distinct stripes read twice: aborted (%v)", htm.DefaultReadCap, code)
	}
	if got := c.Stats.Stripes; got != htm.DefaultReadCap+1 {
		t.Fatalf("Stats.Stripes = %d, want %d read + 1 written only", got, htm.DefaultReadCap)
	}
	last := -1
	code, ok := attempt(alg, c, func(tx tm.Txn) {
		for last = 0; ; last++ {
			tx.Load(tm.Addr(last * stride))
		}
	})
	if ok || code != tm.AbortCapacity || last != htm.DefaultReadCap {
		t.Fatalf("ok=%v code=%v at stripe %d, want a capacity abort at stripe %d", ok, code, last, htm.DefaultReadCap)
	}
}

// conflictSeen runs a reader attempt that marks x, lets the writer commit,
// and reports whether the reader was aborted at its next read.
func conflictSeen(t *testing.T, alg tm.Algorithm, r, w *tm.Ctx, v uint64) bool {
	t.Helper()
	code, ok := attempt(alg, r, func(tx tm.Txn) {
		tx.Load(wordX)
		writeBoth(t, alg, w, v)
		tx.Load(wordY)
	})
	return !ok && code == tm.AbortConflict
}

func marksClear(sl *tm.HTMSlot) bool {
	for i := range sl.Marks {
		if atomic.LoadUint32(&sl.Marks[i]) != 0 {
			return false
		}
	}
	return true
}

// TestStampWrap: the reader's epoch is preset two attempts short of the end
// of its 32-bit stamps. No conflict is missed before, at or after the wrap;
// the wrap clears the table and moves the generation; and the writer, whose
// lower bound for the reader is by then the largest stamp there is, drops it.
func TestStampWrap(t *testing.T) {
	h := tm.NewHeap(64, 2)
	alg := newHTM()
	r, w := tm.NewCtx(0, h), tm.NewCtx(1, h)
	writeBoth(t, alg, w, 1)
	sl := h.HTMAttach(r.ID)
	sl.Cur.Store(1<<32 | (1<<32 - 3))

	for _, want := range []uint64{1<<32 | (1<<32 - 2), 1<<32 | (1<<32 - 1)} {
		if !conflictSeen(t, alg, r, w, want) || r.HTM.Epoch != want {
			t.Fatalf("epoch %#x (want %#x): conflict before the wrap missed", r.HTM.Epoch, want)
		}
		if seen := w.HTM.Peers[0].Seen; seen != want {
			t.Fatalf("writer's bound for the reader = %#x, want %#x", seen, want)
		}
	}
	if sl.Gen.Load() != 1 || marksClear(sl) {
		t.Fatalf("gen %d, marks clear %v before the wrap", sl.Gen.Load(), marksClear(sl))
	}

	const first = 2<<32 | 1
	if !conflictSeen(t, alg, r, w, 7) || r.HTM.Epoch != first {
		t.Fatalf("epoch %#x (want %#x): conflict across the wrap missed — stamp 1 is below the writer's old bound", r.HTM.Epoch, uint64(first))
	}
	if sl.Gen.Load() != 2 {
		t.Fatalf("gen = %d after the wrap, want 2", sl.Gen.Load())
	}
	if seen := w.HTM.Peers[0].Seen; seen != first {
		t.Fatalf("writer's bound for the reader = %#x after the wrap, want %#x", seen, uint64(first))
	}
	// Only the wrapped attempt's two marks are in the table.
	for s := range sl.Marks {
		want := uint32(0)
		if s == int(h.Stripe(wordX)) || s == int(h.Stripe(wordY)) {
			want = 1
		}
		if got := atomic.LoadUint32(&sl.Marks[s]); got != want {
			t.Fatalf("mark[%d] = %d after the wrap, want %d", s, got, want)
		}
	}
	if !conflictSeen(t, alg, r, w, 8) {
		t.Fatal("conflict after the wrap missed")
	}
}

// TestResetStartsNewGeneration: a mark from before Heap.Reset dooms nobody
// after it, and contexts that outlive the Reset keep detecting conflicts.
func TestResetStartsNewGeneration(t *testing.T) {
	h := tm.NewHeap(64, 2)
	alg := newHTM()
	r, w := tm.NewCtx(0, h), tm.NewCtx(1, h)
	if !conflictSeen(t, alg, r, w, 1) {
		t.Fatal("conflict before the Reset missed")
	}
	before := r.HTM.Epoch
	h.Reset()
	if !marksClear(r.HTM.Slot) || !marksClear(w.HTM.Slot) {
		t.Fatal("Reset left read marks behind")
	}
	// The reader's next attempt stays off x; the writer overwrites x.
	if code, ok := attempt(alg, r, func(tx tm.Txn) {
		writeBoth(t, alg, w, 2)
	}); !ok {
		t.Fatalf("reader aborted (%v) by a mark from before the Reset", code)
	}
	if r.HTM.Epoch>>32 != before>>32+1 {
		t.Fatalf("epoch %#x after Reset, %#x before: want the next generation", r.HTM.Epoch, before)
	}
	if doom := r.HTM.Slot.Doom.Load(); doom > before {
		t.Fatalf("doom %#x names an attempt after the Reset (last before it: %#x)", doom, before)
	}
	if !conflictSeen(t, alg, r, w, 3) {
		t.Fatal("conflict after the Reset missed: the writer kept its old bound")
	}
}

// TestOpacitySoak: concurrent readers never see x != y while writers move
// both, on the hardware path and through fallbacks (a budget of 2 and an
// oversized transaction now and then), and nothing is lost. Run under -race.
func TestOpacitySoak(t *testing.T) {
	const workers, rounds = 4, 4000
	h := tm.NewHeap(1<<10, workers)
	alg := &htm.HTM{WriteCap: 8, CM: htm.NewCM(2, htm.PolicyGiveUp)}
	h.MustAlloc(63) // x and y
	big := h.MustAlloc(16 * 8)
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := tm.NewCtx(id, h)
			for i := 0; i < rounds; i++ {
				switch {
				case id%2 == 0:
					tm.Run(alg, c, func(tx tm.Txn) {
						if x, y := tx.Load(wordX), tx.Load(wordY); x != y {
							t.Errorf("slot %d read x=%d y=%d inside a transaction", id, x, y)
						}
					})
				case i%64 == 0: // over the write capacity: takes the fallback
					tm.Run(alg, c, func(tx tm.Txn) {
						for k := tm.Addr(0); k < 16; k++ {
							tx.Store(big+k*8, tx.Load(big+k*8)+1)
						}
						tx.Store(wordX, tx.Load(wordX)+1)
						tx.Store(wordY, tx.Load(wordY)+1)
					})
				default:
					tm.Run(alg, c, func(tx tm.Txn) {
						tx.Store(wordX, tx.Load(wordX)+1)
						tx.Store(wordY, tx.Load(wordY)+1)
					})
				}
			}
		}(id)
	}
	wg.Wait()
	if x, y := h.LoadWord(wordX), h.LoadWord(wordY); x != y || x != workers/2*rounds {
		t.Fatalf("x=%d y=%d, want both %d", x, y, workers/2*rounds)
	}
}
