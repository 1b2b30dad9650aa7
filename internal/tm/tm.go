// Package tm provides the low-level transactional memory substrate shared by
// every TM algorithm in this repository: a word-addressed transactional heap,
// per-thread transaction contexts with reusable read/write sets, the common
// Algorithm interface implemented by each TM backend, and the retry loop that
// executes atomic blocks.
//
// The package plays the role of the GCC TM ABI in the paper: application code
// demarcates atomic blocks as Go closures and performs every shared-memory
// access through Txn.Load and Txn.Store (the "instrumented path"). TM
// algorithms keep all their metadata (ownership records, version clocks) in
// side tables owned by the Heap, never inside application words, which is the
// property PolyTM requires to switch algorithms at run time.
package tm

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
)

// Addr is the address of one 64-bit word in a Heap. Addresses are plain
// indices: TM data structures store Addr values inside heap words to build
// linked structures (the analogue of pointers in the C benchmarks).
type Addr uint32

// NilAddr is the null pointer of the transactional heap. Word 0 is reserved
// so that NilAddr never aliases live data.
const NilAddr Addr = 0

// AbortCode classifies why a transaction attempt failed. PolyTM's contention
// manager uses the code to pick the retry policy (e.g. HTM capacity aborts
// may consume the whole retry budget).
type AbortCode uint8

const (
	// AbortNone means the attempt did not abort.
	AbortNone AbortCode = iota
	// AbortConflict is a data conflict with a concurrent transaction.
	AbortConflict
	// AbortCapacity is a best-effort HTM capacity overflow.
	AbortCapacity
	// AbortExplicit is a programmer-requested retry.
	AbortExplicit
	// AbortFallback means the attempt was killed by a fallback-path
	// transaction (e.g. the HTM global-lock subscription fired).
	AbortFallback
)

// String returns the human-readable name of the abort code.
func (a AbortCode) String() string {
	switch a {
	case AbortNone:
		return "none"
	case AbortConflict:
		return "conflict"
	case AbortCapacity:
		return "capacity"
	case AbortExplicit:
		return "explicit"
	case AbortFallback:
		return "fallback"
	}
	return "unknown"
}

// Txn is the interface through which atomic blocks access the heap. It is
// the Go analogue of the instrumented tm_read/tm_write calls the compiler
// emits in the paper's GCC integration.
type Txn interface {
	// Load transactionally reads the word at a.
	Load(a Addr) uint64
	// Store transactionally writes v to the word at a.
	Store(a Addr, v uint64)
}

// Algorithm is one TM implementation (an STM, a simulated HTM, a hybrid, or
// the global-lock baseline). All algorithm state lives in the Ctx and in the
// Heap's metadata tables so that PolyTM can retarget a thread to a different
// Algorithm between transactions.
type Algorithm interface {
	// Name returns the short identifier used in configuration encodings
	// (e.g. "tl2", "norec", "htm").
	Name() string
	// Begin starts a new transaction attempt on c.
	Begin(c *Ctx)
	// Load performs a transactional read. It may abort the attempt by
	// calling c.Retry.
	Load(c *Ctx, a Addr) uint64
	// Store performs a transactional write. It may abort the attempt by
	// calling c.Retry.
	Store(c *Ctx, a Addr, v uint64)
	// Commit attempts to commit. It returns false if the attempt must be
	// retried; in that case the runtime calls Abort before retrying.
	Commit(c *Ctx) bool
	// Abort releases any resources held by the failed attempt (encounter
	// locks, speculative footprint marks). It must be idempotent.
	Abort(c *Ctx)
}

// retrySig is the panic payload used to unwind an atomic block when the
// algorithm detects a conflict mid-transaction. It never escapes Run.
type retrySig struct{ code AbortCode }

// TxnBinder is optionally implemented by algorithms that provide their own
// concrete Txn view of a context. A concrete binding replaces the generic
// boundTxn's double dispatch (interface call into the wrapper, then a second
// interface call into the algorithm) with a single interface call that lands
// directly in the backend's Load/Store, and — because every binding is
// pointer-shaped — converting it to Txn never allocates per attempt. All
// built-in backends implement it; the generic fallback below exists for
// out-of-tree Algorithm implementations (tests, ablations).
//
// Caution for wrapper algorithms: a type that embeds another Algorithm
// inherits its BindTxn by method promotion, and the promoted binding
// dispatches into the embedded type's Load/Store — bypassing the wrapper.
// Wrappers that override Load/Store MUST declare their own BindTxn (see
// htm.NaiveHTM).
type TxnBinder interface {
	// BindTxn returns the Txn view atomic blocks use to access c. The
	// result must remain valid for the lifetime of c (it is cached).
	BindTxn(c *Ctx) Txn
}

// boundTxn is the generic fallback binding for algorithms that do not
// implement TxnBinder. Converting it to Txn heap-allocates (it is two words
// wide), which is why bindings are cached per context.
type boundTxn struct {
	alg Algorithm
	c   *Ctx
}

func (t boundTxn) Load(a Addr) uint64     { return t.alg.Load(t.c, a) }
func (t boundTxn) Store(a Addr, v uint64) { t.alg.Store(t.c, a, v) }

// Bind returns a Txn view of (alg, c) without running a transaction. It is
// used by tests that drive algorithm internals directly.
func Bind(alg Algorithm, c *Ctx) Txn {
	if b, ok := alg.(TxnBinder); ok {
		return b.BindTxn(c)
	}
	return boundTxn{alg, c}
}

// BindCached returns the Txn view of (alg, c), reusing the binding cached in
// c while the algorithm is unchanged. The steady-state cost is one interface
// compare; rebinding happens only when PolyTM retargets the thread to a
// different backend.
func BindCached(alg Algorithm, c *Ctx) Txn {
	if alg == c.boundAlg {
		return c.bound
	}
	tx := Bind(alg, c)
	c.bound, c.boundAlg = tx, alg
	return tx
}

// Run executes fn as an atomic block under alg, retrying until it commits.
// It is the fixed-algorithm loop of the workloads and benchmarks; PolyTM's
// Pool.Atomic runs its own loop around Attempt and passes every attempt
// through its thread gate. A panic raised by fn itself (anything but a
// retry) aborts the attempt like a conflict would — encounter locks,
// speculative marks and the global lock are released — and then continues
// up the caller's stack.
func Run(alg Algorithm, c *Ctx, fn func(Txn)) {
	tx := BindCached(alg, c)
	c.Attempts = 0
	c.TxnID++
	for {
		alg.Begin(c)
		code, ok, foreign := attempt(alg, tx, c, fn)
		if ok {
			c.Stats.IncCommit()
			return
		}
		c.AbortReason = code
		alg.Abort(c)
		if foreign != nil {
			panic(foreign)
		}
		c.Stats.Record(code)
		c.Attempts++
		c.Backoff()
	}
}

// Attempt runs one try of the atomic block under alg, converting a retry
// panic into a normal (code, false) return. Any other panic is handed back
// as foreign (with ok false): the caller must release the attempt with
// alg.Abort, leave whatever gate it entered, and re-panic with the value, so
// a block that blows up never strands the algorithm's locks or the caller's
// gate. The caller is responsible for Begin beforehand and, on failure, for
// invoking alg.Abort. PolyTM's dispatch loop uses Attempt directly so the
// algorithm can be re-resolved between attempts.
func Attempt(alg Algorithm, c *Ctx, fn func(Txn)) (code AbortCode, ok bool, foreign any) {
	return attempt(alg, BindCached(alg, c), c, fn)
}

// attempt is the shared single-try body behind Run and Attempt.
func attempt(alg Algorithm, tx Txn, c *Ctx, fn func(Txn)) (code AbortCode, ok bool, foreign any) {
	defer func() {
		if r := recover(); r != nil {
			if sig, isRetry := r.(retrySig); isRetry {
				code = sig.code
			} else {
				foreign = r
			}
			ok = false
		}
	}()
	fn(tx)
	if alg.Commit(c) {
		return AbortNone, true, nil
	}
	return c.AbortReason, false, nil
}

// Ctx is the per-thread transaction context. One Ctx is allocated per worker
// thread and reused across transactions; its read/write sets are recycled to
// keep the steady-state allocation rate at zero. Fields are exported so that
// algorithm packages (stm, htm) can share them without accessor overhead.
type Ctx struct {
	// ID is the PolyTM thread slot of the owning thread (0-based).
	ID int
	// H is the heap this context operates on.
	H *Heap

	// RV and WV are the read and write version timestamps used by
	// clock-based STMs (TL2, TinySTM, SwissTM) and by NOrec (RV doubles
	// as the sequence-lock snapshot).
	RV, WV uint64

	// WS is the redo-log write set shared by all write-back algorithms.
	WS WriteSet
	// RS is the ownership-record read set for TL2-style validation
	// (stripe index plus observed version).
	RS ReadSet
	// VRS is the value-based read set used by NOrec.
	VRS ValueReadSet
	// Locked records the stripes locked encounter-time (TinySTM, SwissTM)
	// along with the metadata needed to restore them on abort.
	Locked LockSet

	// Attempts counts failed attempts of the transaction currently being
	// retried. Reset when Run returns.
	Attempts int
	// TxnID is a per-thread logical transaction sequence number,
	// incremented once per atomic block (not per attempt). HTM uses it to
	// reload its retry budget exactly once per transaction.
	TxnID uint64
	// AbortReason is set by algorithms before returning false from Commit
	// so the runtime can attribute the failure.
	AbortReason AbortCode

	// HTM simulation state (see internal/htm): speculative footprint and
	// contention-management budget.
	HTM HTMState

	// Stats accumulates commit/abort counters; PolyTM's monitor reads
	// them with atomic snapshots.
	Stats Stats

	// Priority is the contention-management priority (incremented by
	// SwissTM's greedy manager as a transaction keeps losing).
	Priority uint64

	// rng is the per-thread xorshift state used for randomized backoff.
	rng uint64

	// MaxBackoff bounds the randomized backoff spin (iterations). Zero
	// selects the default.
	MaxBackoff int

	// bound caches the Txn view handed to atomic blocks for boundAlg, so
	// steady-state dispatch performs no interface boxing (see BindCached).
	bound    Txn
	boundAlg Algorithm

	_ [5]uint64 // pad to keep hot contexts off each other's cache lines
}

// NewCtx returns a context for thread slot id operating on h. The id must be
// one of the heap's slots: every per-slot table is sized by NewHeap.
func NewCtx(id int, h *Heap) *Ctx {
	if id < 0 || id >= h.MaxThreads() {
		panic(fmt.Sprintf("tm: thread slot %d out of range [0,%d)", id, h.MaxThreads()))
	}
	c := &Ctx{ID: id, H: h, rng: uint64(id)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
	c.WS.init()
	c.Locked.init()
	return c
}

// Retry aborts the current transaction attempt with the given code. It
// unwinds the atomic block via panic; Run catches the signal and retries.
func (c *Ctx) Retry(code AbortCode) {
	panic(retrySig{code})
}

// ResetSets clears every read/write/lock set for a fresh attempt.
func (c *Ctx) ResetSets() {
	c.WS.Reset()
	c.RS.Reset()
	c.VRS.Reset()
	c.Locked.Reset()
}

// Rand returns the next value of the per-thread xorshift64* generator.
func (c *Ctx) Rand() uint64 {
	x := c.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rng = x
	return x * 0x2545F4914F6CDD1D
}

// Backoff performs bounded randomized exponential backoff proportional to
// the number of failed attempts, yielding the processor between spins so
// that oversubscribed configurations still make progress.
func (c *Ctx) Backoff() {
	max := c.MaxBackoff
	if max == 0 {
		max = 1 << 12
	}
	shift := c.Attempts
	if shift > 10 {
		shift = 10
	}
	window := 1 << uint(shift)
	if window > max {
		window = max
	}
	spins := int(c.Rand() % uint64(window+1))
	for i := 0; i < spins; i++ {
		spinPause()
	}
	if c.Attempts > 3 && c.Attempts%4 == 0 {
		runtime.Gosched()
	}
}

// spinPause is a calibrated short delay used in backoff loops.
//
//go:noinline
func spinPause() {
	for i := 0; i < 4; i++ {
		_ = atomic.LoadUint64(&spinSink)
	}
}

var spinSink uint64

// Stats holds per-thread commit and abort counters, padded so concurrent
// threads never share a cache line (the paper's "padded state variable").
// The counters are owner-local: only the owning thread mutates them, with
// plain stores, so transaction accounting adds no atomic RMWs to the fast
// path. Foreign readers must establish happens-before with the owner first:
// polytm.Pool.SnapshotStats parks each thread at a transaction boundary via
// the Algorithm-1 gate, and everything else reads only after joining the
// worker goroutines (quiescence).
type Stats struct {
	Commits        uint64
	Aborts         uint64
	ConflictAborts uint64
	CapacityAborts uint64
	ExplicitAborts uint64
	FallbackAborts uint64
	FallbackRuns   uint64 // HTM transactions executed on the fallback path
	// Stripes counts the distinct stripes committed hardware attempts of
	// the simulated HTM read-marked or write-claimed: over Commits, the
	// footprint of a transaction in cache lines.
	Stripes uint64
}

// IncCommit counts one committed transaction (owner thread only).
func (s *Stats) IncCommit() { s.Commits++ }

// IncFallbackRun counts one fallback-path execution (owner thread only).
func (s *Stats) IncFallbackRun() { s.FallbackRuns++ }

// Record counts one aborted attempt classified by code (owner thread only).
func (s *Stats) Record(code AbortCode) {
	s.Aborts++
	switch code {
	case AbortConflict:
		s.ConflictAborts++
	case AbortCapacity:
		s.CapacityAborts++
	case AbortExplicit:
		s.ExplicitAborts++
	case AbortFallback:
		s.FallbackAborts++
	}
}

// Snapshot returns a copy of the counters. Callers must be the owning
// thread or have quiesced it (see the Stats doc comment); PolyTM's
// SnapshotStats provides the gate-synchronized path for live pools.
func (s *Stats) Snapshot() Stats { return *s }

// Add accumulates o into s (plain adds; use on snapshots only).
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.ConflictAborts += o.ConflictAborts
	s.CapacityAborts += o.CapacityAborts
	s.ExplicitAborts += o.ExplicitAborts
	s.FallbackAborts += o.FallbackAborts
	s.FallbackRuns += o.FallbackRuns
	s.Stripes += o.Stripes
}

// AbortRate returns aborted attempts over all attempts, aborts / (commits +
// aborts), or 0 when there were none.
func (s Stats) AbortRate() float64 {
	if att := s.Commits + s.Aborts; att > 0 {
		return float64(s.Aborts) / float64(att)
	}
	return 0
}

// Sub returns s minus o field-wise (use on snapshots to window counters).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Commits:        s.Commits - o.Commits,
		Aborts:         s.Aborts - o.Aborts,
		ConflictAborts: s.ConflictAborts - o.ConflictAborts,
		CapacityAborts: s.CapacityAborts - o.CapacityAborts,
		ExplicitAborts: s.ExplicitAborts - o.ExplicitAborts,
		FallbackAborts: s.FallbackAborts - o.FallbackAborts,
		FallbackRuns:   s.FallbackRuns - o.FallbackRuns,
		Stripes:        s.Stripes - o.Stripes,
	}
}

// HTMState is the simulated-HTM speculation state embedded in every Ctx.
// The bounded footprint models the speculative buffers of best-effort
// hardware TM: overflowing it raises a capacity abort.
type HTMState struct {
	// Slot is the slot's shared state and read-mark table (Heap.HTMAttach),
	// nil until the context's first attempt under the simulated HTM.
	Slot *HTMSlot
	// Epoch names the current hardware attempt (a copy of Slot.Cur); its
	// low half is the stamp the attempt's reads leave in Slot.Marks.
	Epoch uint64
	// Reads counts the distinct cache lines the attempt has read-marked.
	Reads int
	// WLines records the cache lines speculatively written by the attempt.
	WLines []uint32
	// Peers are the other attached slots, the first Attached entries of
	// Heap.HTMSlots less this one: the tables a write has to look at.
	Peers    []HTMPeer
	Attached int
	// InTx marks that a hardware attempt is active.
	InTx bool
	// Fallback marks that the current attempt runs on the software
	// fallback path (global lock or hybrid STM) instead of in hardware.
	Fallback bool
	// Budget is the remaining hardware retry budget for the current
	// transaction, managed by the contention-management policy.
	Budget int
	// SnapshotRV is the fallback-lock subscription snapshot.
	SnapshotRV uint64
	// LastTxn is the Ctx.TxnID for which Budget was last initialized.
	LastTxn uint64
}

// HTMPeer is what a context keeps about another slot of the simulated HTM.
type HTMPeer struct {
	Slot *HTMSlot
	// Seen is the last Slot.Cur this context loaded: a mark with an older
	// stamp of the same generation belongs to an attempt that is over.
	Seen uint64
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
