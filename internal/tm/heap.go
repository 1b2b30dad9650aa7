package tm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
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
//
// The words and every per-stripe table, read marks included, are views of
// one arena (newArena), which on unix lives outside the Go heap: a run pays
// resident memory for the pages it touches, not for the capacity.
type Heap struct {
	words []uint64

	// orecs is the primary ownership-record table (one word per stripe).
	// Unlocked encoding: version<<1. Locked encoding: owner<<1 | 1 where
	// owner is the locking thread's slot plus one.
	orecs []uint64
	// rvers is the secondary per-stripe version table used by SwissTM's
	// two-phase (eager write / lazy read) conflict detection.
	rvers []uint64
	// writers is the per-stripe speculative writer slot (owner+1, or 0)
	// used by the simulated HTM.
	writers []uint64
	// htm is the per-slot state of the simulated HTM, read-mark table
	// included (see HTMSlot).
	htm []HTMSlot

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

	// htmList[:htmActive] are the slots that have run a hardware attempt:
	// the tables a writer has to scan. htmMu serializes the appends; the
	// count is published after the entry.
	htmMu     sync.Mutex
	htmList   []*HTMSlot
	htmActive atomic.Uint32

	// arena keeps the memory behind the views above mapped.
	arena *arena
}

// NewHeap creates a heap with the given number of 64-bit words (rounded up
// to at least 2^StripeShift) and an ownership-record table with one stripe
// per cache line, capped at 2^20 stripes to bound metadata memory. maxThreads
// is the number of thread slots: NewCtx accepts ids in [0, maxThreads).
// Like make, it panics if the memory cannot be had; where the heap is mapped
// that means its address space cannot be reserved.
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
	// One arena for the words and every table, each region starting on a
	// cache line. The read marks come last: a whole number of cache lines
	// per slot, so that two slots never write the same line, and a table
	// whose slot never runs a hardware attempt is never touched.
	stride := max(nStripes, 64/4)
	lines := func(n int) int { return (n + 7) &^ 7 }
	a, mem := newArena(lines(words) + 3*lines(nStripes) + maxThreads*stride/2)
	carve := func(n int) []uint64 {
		s := mem[:n:n]
		mem = mem[lines(n):]
		return s
	}
	h := &Heap{
		words:   carve(words),
		orecs:   carve(nStripes),
		rvers:   carve(nStripes),
		writers: carve(nStripes),
		htm:     make([]HTMSlot, maxThreads),
		htmList: make([]*HTMSlot, maxThreads),
		mask:    uint32(nStripes - 1),
		next:    1, // word 0 is NilAddr
		arena:   a,
	}
	marks := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(mem))), 2*len(mem))
	for t := range h.htm {
		h.htm[t].arena = a
		h.htm[t].Marks = marks[t*stride:][:nStripes:nStripes]
	}
	return h
}

// MaxThreads returns the number of thread slots the heap was created for.
func (h *Heap) MaxThreads() int { return len(h.htm) }

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
// rewound, words and metadata zeroed, clock reset, and every attached slot's
// read marks cleared under a new generation (contexts may outlive a Reset).
// Callers must guarantee quiescence (no live transactions).
func (h *Heap) Reset() {
	for i := range h.words {
		h.words[i] = 0
	}
	for i := range h.orecs {
		h.orecs[i] = 0
		h.rvers[i] = 0
		h.writers[i] = 0
	}
	for _, sl := range h.HTMSlots() {
		sl.NewGeneration()
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

// arena is the handle of the memory behind a heap's words and tables. Its
// finalizer, where newArena sets one, is the only release, and it runs once
// neither the Heap nor any of its HTMSlots is reachable.
type arena struct{ mem []byte }

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

// WriterLoad returns the speculative writer slot (+1) of stripe s, 0 if none.
func (h *Heap) WriterLoad(s uint32) uint64 { return atomic.LoadUint64(&h.writers[s]) }

// WriterCAS claims or releases the speculative writer slot of stripe s.
func (h *Heap) WriterCAS(s uint32, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&h.writers[s], old, new)
}

// WriterStore unconditionally sets the speculative writer slot of stripe s.
func (h *Heap) WriterStore(s uint32, v uint64) { atomic.StoreUint64(&h.writers[s], v) }

// HTMSlot is a thread slot's simulated-HTM state that other slots read and
// write. An attempt is named by its epoch: the generation in the high half,
// in the low half the stamp its reads leave in Marks. Epochs of one slot only
// grow. internal/htm has the protocol.
type HTMSlot struct {
	// Cur is the epoch of the slot's current hardware attempt (of its last
	// one, between attempts). The owner stores it once per attempt, before
	// the attempt's first mark; a writer that finds a mark it cannot rule
	// out loads it to learn whether the mark is live.
	Cur atomic.Uint64
	_   [7]uint64
	// Doom is the highest epoch a conflicting transaction has doomed: the
	// attempt with exactly that epoch must abort. Written by other slots
	// (see DoomEpoch), read by the owner on every access.
	Doom atomic.Uint64
	// Gen is Cur's generation, stored before the table is cleared for it:
	// the word writers read in place of the hot Cur line to learn that the
	// stamps started over. Zero until the slot attaches.
	Gen atomic.Uint64
	// Marks is the slot's read-mark table, one entry per stripe: the stamp
	// of the last attempt of the current generation that read the stripe,
	// 0 if none did. Only the owner stores to it; everyone uses atomics.
	Marks []uint32
	// arena keeps Marks mapped for as long as the slot is reachable: contexts
	// and writers hold slots, not the heap.
	arena *arena
	_     [2]uint64
}

// DoomEpoch requests the remote abort of the slot's attempt e. It only ever
// raises Doom, so a doom that arrives late cannot hide a newer one; one for
// an attempt that is over hits nothing, since no later attempt has its epoch.
func (sl *HTMSlot) DoomEpoch(e uint64) {
	for {
		d := sl.Doom.Load()
		if d >= e || sl.Doom.CompareAndSwap(d, e) {
			return
		}
	}
}

// NewGeneration starts the next generation of the slot's stamps — the owner
// calls it between attempts when the 32-bit stamp is used up, Heap.Reset for
// every attached slot — and returns the generation's base epoch (stamp 0;
// attempts count from 1). Concurrent writers rely on the order: Gen first,
// then the table, then Cur.
func (sl *HTMSlot) NewGeneration() uint64 {
	gen := sl.Gen.Load() + 1
	sl.Gen.Store(gen)
	for i := range sl.Marks {
		atomic.StoreUint32(&sl.Marks[i], 0)
	}
	sl.Cur.Store(gen << 32)
	return gen << 32
}

// HTMSlot returns slot id's simulated-HTM state.
func (h *Heap) HTMSlot(id int) *HTMSlot { return &h.htm[id] }

// HTMAttach returns slot id's state after adding the slot, before its first
// hardware attempt, to the slots whose marks writers scan (HTMSlots). Other
// slots may be in hardware attempts meanwhile; attaching twice is harmless.
func (h *Heap) HTMAttach(id int) *HTMSlot {
	h.htmMu.Lock()
	defer h.htmMu.Unlock()
	sl := &h.htm[id]
	if sl.Gen.Load() == 0 {
		sl.Cur.Store(1 << 32)
		sl.Gen.Store(1)
		n := h.htmActive.Load()
		h.htmList[n] = sl
		h.htmActive.Store(n + 1)
	}
	return sl
}

// HTMSlots returns the attached slots, in attach order. The list only grows.
func (h *Heap) HTMSlots() []*HTMSlot { return h.htmList[:h.htmActive.Load()] }

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
