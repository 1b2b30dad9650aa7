package tm

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrHeapExhausted is wrapped by the error of an Alloc the heap has no room
// for — and so is the value MustAlloc panics with, which lets a server whose
// atomic blocks allocate tell a full heap from a bug.
var ErrHeapExhausted = errors.New("tm: heap exhausted")

// StripeShift sets the ownership-record granularity: 2^StripeShift words map
// to one stripe. With 8-byte words, 3 yields 64-byte stripes, matching the
// cache-line granularity at which real HTM detects conflicts (and at which
// word-based STMs such as TinySTM commonly stripe their lock tables).
const StripeShift = 3

// Heap is the transactional heap: a flat array of 64-bit words plus the
// metadata side tables used by the TM algorithms. All application state in
// the benchmarks lives in heap words addressed by Addr; keeping TM metadata
// out of application memory is the property that lets PolyTM switch the
// algorithm underneath a live application (§4 of the paper).
type Heap struct {
	words []uint64

	// orecs is the primary ownership-record table (one word per stripe).
	// Unlocked encoding: version<<1. Locked encoding: owner<<1 | 1 where
	// owner is the locking thread's slot plus one.
	orecs []uint64
	// rvers is the secondary per-stripe version table used by SwissTM's
	// two-phase (eager write / lazy read) conflict detection.
	rvers []uint64
	// readers is the per-stripe speculative reader bitmap used by the
	// simulated HTM (bit i set = thread slot i has the line in its read
	// set). Limited to 64 hardware threads, which covers both machine
	// profiles.
	readers []uint64
	// writers is the per-stripe speculative writer slot (owner+1, or 0)
	// used by the simulated HTM.
	writers []uint64

	mask uint32

	_clockPad [7]uint64
	// clock is the global version clock shared by TL2/TinySTM/SwissTM and
	// reused as NOrec's global sequence lock.
	clock uint64
	_     [7]uint64
	// fallbackLock is the serial-mode lock for the simulated HTM (odd =
	// held). HTM transactions subscribe to it at begin.
	fallbackLock uint64
	_            [7]uint64
	// next is the bump-allocation cursor.
	next uint64
	_    [7]uint64

	// htmDoom holds one doom flag pointer per thread slot so a conflicting
	// HTM transaction can remotely abort its victims. Slots are atomic
	// pointers because threads register lazily (at their first HTM
	// transaction) while other threads may already be dooming.
	htmDoom []atomic.Pointer[atomic.Bool]
}

// NewHeap creates a heap with the given number of 64-bit words (rounded up
// to at least 2^StripeShift) and an ownership-record table with one stripe
// per cache line, capped at 2^20 stripes to bound metadata memory. maxThreads
// bounds the thread slots that may run HTM transactions.
func NewHeap(words int, maxThreads int) *Heap {
	if words < 1<<StripeShift {
		words = 1 << StripeShift
	}
	nStripes := 1 << uint(log2ceil((words+(1<<StripeShift)-1)>>StripeShift))
	if nStripes > 1<<20 {
		nStripes = 1 << 20
	}
	if nStripes < 1 {
		nStripes = 1
	}
	h := &Heap{
		words:   make([]uint64, words),
		orecs:   make([]uint64, nStripes),
		rvers:   make([]uint64, nStripes),
		readers: make([]uint64, nStripes),
		writers: make([]uint64, nStripes),
		mask:    uint32(nStripes - 1),
		next:    1, // word 0 is NilAddr
		htmDoom: make([]atomic.Pointer[atomic.Bool], maxThreads),
	}
	return h
}

// Words returns the heap capacity in 64-bit words.
func (h *Heap) Words() int { return len(h.words) }

// Stripes returns the number of ownership-record stripes.
func (h *Heap) Stripes() int { return len(h.orecs) }

// Stripe maps a word address to its ownership-record index.
func (h *Heap) Stripe(a Addr) uint32 { return (uint32(a) >> StripeShift) & h.mask }

// Alloc reserves n consecutive words and returns the address of the first.
// Allocation is a wait-free bump pointer: the benchmarks allocate during
// setup and inside transactions (e.g. tree node creation) but never free;
// Reset recycles the whole arena between runs.
func (h *Heap) Alloc(n int) (Addr, error) {
	if n <= 0 {
		return NilAddr, fmt.Errorf("tm: Alloc size %d must be positive", n)
	}
	base := atomic.AddUint64(&h.next, uint64(n)) - uint64(n)
	if base+uint64(n) > uint64(len(h.words)) {
		return NilAddr, fmt.Errorf("%w (%d words requested, %d used of %d)", ErrHeapExhausted, n, min(base, uint64(len(h.words))), len(h.words))
	}
	return Addr(base), nil
}

// MustAlloc is Alloc but panics on exhaustion; it is intended for benchmark
// setup code where an undersized heap is a programming error.
func (h *Heap) MustAlloc(n int) Addr {
	a, err := h.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Reset returns the heap to its freshly-created state: allocation cursor
// rewound, words and metadata zeroed, clock reset. Callers must guarantee
// quiescence (no live transactions).
func (h *Heap) Reset() {
	for i := range h.words {
		h.words[i] = 0
	}
	for i := range h.orecs {
		h.orecs[i] = 0
		h.rvers[i] = 0
		h.readers[i] = 0
		h.writers[i] = 0
	}
	atomic.StoreUint64(&h.clock, 0)
	atomic.StoreUint64(&h.fallbackLock, 0)
	atomic.StoreUint64(&h.next, 1)
}

// LoadWord atomically reads the word at a without any transactional
// bookkeeping. It is the non-instrumented path used by the sequential
// baseline, by HTM-mode execution, and by setup code.
func (h *Heap) LoadWord(a Addr) uint64 { return atomic.LoadUint64(&h.words[a]) }

// StoreWord atomically writes the word at a without transactional
// bookkeeping. See LoadWord.
func (h *Heap) StoreWord(a Addr, v uint64) { atomic.StoreUint64(&h.words[a], v) }

// Allocated returns the number of words handed out so far.
func (h *Heap) Allocated() int {
	n := atomic.LoadUint64(&h.next)
	if n > uint64(len(h.words)) {
		n = uint64(len(h.words))
	}
	return int(n)
}

// Digest returns an FNV-1a hash over every allocated word: a cheap
// fingerprint of the heap contents. The deterministic scenario harness
// records it so that two runs claiming to be identical must agree not just
// on counters but on the actual end state of the data structures. Only
// meaningful while no transactions are running.
func (h *Heap) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hash := uint64(offset64)
	for i, n := 0, h.Allocated(); i < n; i++ {
		w := atomic.LoadUint64(&h.words[i])
		for b := 0; b < 8; b++ {
			hash ^= (w >> (8 * b)) & 0xff
			hash *= prime64
		}
	}
	return hash
}

// --- Global version clock -------------------------------------------------

// Clock returns the current value of the global version clock.
func (h *Heap) Clock() uint64 { return atomic.LoadUint64(&h.clock) }

// ClockAdd atomically advances the global clock by d and returns the new
// value.
func (h *Heap) ClockAdd(d uint64) uint64 { return atomic.AddUint64(&h.clock, d) }

// ClockCAS attempts to advance the clock from old to new.
func (h *Heap) ClockCAS(old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&h.clock, old, new)
}

// ClockStore sets the clock; used only by NOrec's commit unlock.
func (h *Heap) ClockStore(v uint64) { atomic.StoreUint64(&h.clock, v) }

// --- Ownership records ------------------------------------------------------

// OrecLoad atomically reads ownership record s.
func (h *Heap) OrecLoad(s uint32) uint64 { return atomic.LoadUint64(&h.orecs[s]) }

// OrecCAS attempts to replace ownership record s.
func (h *Heap) OrecCAS(s uint32, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&h.orecs[s], old, new)
}

// OrecStore unconditionally writes ownership record s; valid only while the
// caller holds the record's lock.
func (h *Heap) OrecStore(s uint32, v uint64) { atomic.StoreUint64(&h.orecs[s], v) }

// RVerLoad reads SwissTM's per-stripe read version.
func (h *Heap) RVerLoad(s uint32) uint64 { return atomic.LoadUint64(&h.rvers[s]) }

// RVerStore writes SwissTM's per-stripe read version (caller holds w-lock).
func (h *Heap) RVerStore(s uint32, v uint64) { atomic.StoreUint64(&h.rvers[s], v) }

// OrecLocked reports whether the encoded record value is locked, and if so
// by which thread slot.
func OrecLocked(v uint64) (owner int, locked bool) {
	if v&1 == 0 {
		return 0, false
	}
	return int(v>>1) - 1, true
}

// OrecVersion returns the version of an unlocked record value.
func OrecVersion(v uint64) uint64 { return v >> 1 }

// OrecLockedBy encodes a locked record owned by thread slot id.
func OrecLockedBy(id int) uint64 { return uint64(id+1)<<1 | 1 }

// OrecUnlocked encodes an unlocked record at the given version.
func OrecUnlocked(version uint64) uint64 { return version << 1 }

// --- Simulated-HTM metadata -------------------------------------------------

// ReaderMaskLoad returns the speculative reader bitmap of stripe s.
func (h *Heap) ReaderMaskLoad(s uint32) uint64 { return atomic.LoadUint64(&h.readers[s]) }

// ReaderMaskOr sets bits in the reader bitmap of stripe s and returns the
// previous value.
func (h *Heap) ReaderMaskOr(s uint32, bits uint64) uint64 {
	return atomic.OrUint64(&h.readers[s], bits)
}

// ReaderMaskAndNot clears bits in the reader bitmap of stripe s.
func (h *Heap) ReaderMaskAndNot(s uint32, bits uint64) {
	atomic.AndUint64(&h.readers[s], ^bits)
}

// WriterLoad returns the speculative writer slot (+1) of stripe s, 0 if none.
func (h *Heap) WriterLoad(s uint32) uint64 { return atomic.LoadUint64(&h.writers[s]) }

// WriterCAS claims or releases the speculative writer slot of stripe s.
func (h *Heap) WriterCAS(s uint32, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&h.writers[s], old, new)
}

// WriterStore unconditionally sets the speculative writer slot of stripe s.
func (h *Heap) WriterStore(s uint32, v uint64) { atomic.StoreUint64(&h.writers[s], v) }

// RegisterDoomFlag publishes thread slot id's doom flag so conflicting HTM
// transactions can remotely abort it. For ids within the table sized by
// NewHeap's maxThreads — every id a correctly configured pool produces —
// registration is an atomic pointer publish and is safe to perform lazily
// (a thread's first HTM transaction) while other threads are concurrently
// calling DoomThread. Registering an out-of-range id grows the table with
// an unsynchronized copy-and-swap of the slice header, which concurrent
// DoomThread readers do NOT observe safely: such calls require quiescence
// (no HTM transactions in flight anywhere), which only holds during setup.
func (h *Heap) RegisterDoomFlag(id int, f *atomic.Bool) {
	if id < len(h.htmDoom) {
		h.htmDoom[id].Store(f)
		return
	}
	grown := make([]atomic.Pointer[atomic.Bool], id+1)
	for i := range h.htmDoom {
		grown[i].Store(h.htmDoom[i].Load())
	}
	grown[id].Store(f)
	h.htmDoom = grown
}

// DoomThread requests the remote abort of thread slot id's current hardware
// transaction. Dooming an unregistered slot is a no-op.
func (h *Heap) DoomThread(id int) {
	if id >= 0 && id < len(h.htmDoom) {
		if f := h.htmDoom[id].Load(); f != nil {
			f.Store(true)
		}
	}
}

// --- HTM fallback lock --------------------------------------------------------

// FallbackLock returns the current fallback sequence-lock value (odd = held).
func (h *Heap) FallbackLock() uint64 { return atomic.LoadUint64(&h.fallbackLock) }

// FallbackAcquire spins until it acquires the serial fallback lock and
// returns the new (odd) lock value.
func (h *Heap) FallbackAcquire() uint64 {
	for {
		v := atomic.LoadUint64(&h.fallbackLock)
		if v&1 == 0 && atomic.CompareAndSwapUint64(&h.fallbackLock, v, v+1) {
			return v + 1
		}
		spinPause()
	}
}

// FallbackRelease releases the serial fallback lock.
func (h *Heap) FallbackRelease() {
	atomic.AddUint64(&h.fallbackLock, 1)
}
