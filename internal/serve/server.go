package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	proteustm "repro"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/tm"
)

// opKind identifies one service operation.
type opKind int

const (
	opGet opKind = iota
	opPut
	opDel
	opCAS
	opRange
	opMPut
	opMGet
	opLPush
	opRPush
	opLPop
	opRPop
	opLLen
	numOps
)

// opNames are the wire/report labels, indexed by opKind.
var opNames = [numOps]string{"get", "put", "del", "cas", "range", "mput", "mget", "lpush", "rpush", "lpop", "rpop", "llen"}

// maxFenceTries bounds how often a fenced request is retried before the
// server gives up on it — a safety valve against a fence that never
// clears, which the protocol does not produce but a bug might.
const maxFenceTries = 20000

// fencedYield bounds one wait of a fenced data operation for the fence's
// release (see awaitRelease): a missed wake-up costs at most this before
// the operation retries.
const fencedYield = 50 * time.Microsecond

// spinBudget bounds how long a waiter polls for the thing it waits for — a
// fence release (awaitRelease) or a free slot token (run) — before it blocks
// the way it always has. What it waits for is held for microseconds (a
// cross-shard commit 5–6 µs uncontended, a 256-key scan's fences ~24 µs, a
// local operation 1–2 µs), while blocking costs a thread wake-up: on the
// 2-vCPU box these numbers were chosen on, park → futex → IPI through the
// hypervisor measured ~93 µs for a slot handed off through the queue and
// ~225 µs for a fence wait, and with both waits blocking two callers on two
// cores served fewer kv-multi operations than one caller on one core. Budget
// by budget, alternating 15 s kv-multi runs (three rounds, ops/s): 20 µs
// 76 k / 114 k / 96 k with 4–14 % of the fence waits outliving the spin and
// paying ~250 µs each (the scans); 40 µs 85 k / 132 k / 118 k with 0.5 %;
// 80 µs 90 k / 132 k / 120 k with 0.2 % — nothing left to win past 40.
//
// One poll is an atomic load and a clock read, ~45 ns here. Every
// spinYieldEvery polls (~23 µs, so once in a budget) the spinner yields, so
// that a holder waiting for this P runs; runtime.Gosched takes the scheduler
// lock, which is why it is not part of every poll, though with two callers
// yielding on every poll measured the same (131 k / 122 k / 124 k / 100 k
// against 129 k / 124 k / 130 k / 99 k).
const (
	spinBudget     = 40 * time.Microsecond
	spinYieldEvery = 512
)

// request is one admitted operation: it runs under a leased worker slot on
// its submitter's goroutine, which waits in the shard's line when no slot is
// free.
type request struct {
	op        opKind
	key, val  uint64
	old, newv uint64
	lo, hi    uint64
	// keys/vals carry batch operations (mput/mget) confined to one shard.
	keys, vals []uint64
	// ctl marks a control step of the cross-shard machinery (fence
	// acquire, apply+release, release, migration batch): it bypasses the op
	// switch and the served counters and, when no slot is free, takes the
	// next returned slot ahead of the data operations waiting in the shard's
	// line (see shardState.release). The step is one transaction on the shard
	// running step (nil: nothing). With hold set (a non-zero token) it is a
	// guarded step: a no-op unless hold is still the current holder of its
	// fence entry — the failure detector may have recovered it, and
	// possibly handed the entry to a new holder under a new epoch — and
	// releases then frees hold in the same transaction, after which the
	// shard wakes the operations waiting for a release. An acquire must not
	// set releases: a coordinator's own acquire would end its wait for the
	// release of the fence that refused it.
	//
	// kind selects the transaction of the two control steps a coordinator
	// runs per participant on every commit, so neither costs a closure:
	// stepAcquire claims a fence entry for token key with heartbeat val and
	// signature lo (the data-operation fields, which no other control step
	// reads; see acquireStep), stepApply runs part's phase-2 apply. The zero
	// kind runs step.
	ctl      bool
	releases bool
	kind     stepKind
	step     func(tx proteustm.Txn, slot int) response
	hold     FenceHold
	part     *crossPart
	// accepted is stamped when the request is first admitted, before it
	// looks for a slot, so queue-wait is measured from acceptance; a
	// re-routed request keeps it.
	accepted time.Time
	// ctx is the client's request context: an operation whose client hung
	// up is dropped, never executed. Nil means no cancellation source
	// (internal submissions).
	ctx context.Context
	// budget is the per-request deadline override (the wire's
	// deadline_ms); the effective deadline is the tighter of budget and
	// Options.Deadline, anchored at accepted.
	budget time.Duration
	// deadline, when non-zero, is the instant after which the operation
	// must not execute (it is answered 504 and counted shed_deadline).
	deadline time.Time
	// fenceTries counts retries caused by an observed fence.
	fenceTries int
	// routingEpoch is the placement epoch the request was routed under
	// (stamped by submitRouted). A shard whose placement epoch
	// has advanced past it bounces the operation back for re-routing
	// instead of executing against possibly-migrated state.
	routingEpoch uint64
}

// stepKind selects what a control step's transaction does (request.kind).
type stepKind uint8

const (
	stepFunc    stepKind = iota // run request.step (nil: nothing)
	stepAcquire                 // claim a fence entry (token, heartbeat, signature in key, val, lo)
	stepApply                   // apply request.part's slice of its batch
)

// expired reports whether the request must not execute: its deadline has
// passed or its client's context is done. process calls it immediately
// before execution, so an op that expired in line is dropped rather than run
// against a store nobody is waiting on. A request without a deadline does
// not read the clock.
func (r *request) expired(clk clock) bool {
	if !r.deadline.IsZero() && clk.Now().After(r.deadline) {
		return true
	}
	return r.ctx != nil && r.ctx.Err() != nil
}

// response is the outcome of one executed operation.
type response struct {
	Found   bool   `json:"found,omitempty"`
	Applied bool   `json:"applied,omitempty"`
	Existed bool   `json:"existed,omitempty"`
	Val     uint64 `json:"val,omitempty"`
	Count   uint64 `json:"count,omitempty"`
	Sum     uint64 `json:"sum,omitempty"`
	Len     uint64 `json:"len,omitempty"`
	// Vals and Present are the per-key results of batch reads (mget),
	// aligned with the requested keys.
	Vals    []uint64 `json:"vals,omitempty"`
	Present []bool   `json:"present,omitempty"`
	Err     string   `json:"err,omitempty"`
	// code, when non-zero, overrides the HTTP status the error maps to
	// (504 for deadline drops); unexported so it never reaches the wire.
	code int
	// retryAfter, when non-zero, becomes the Retry-After header of the
	// HTTP reply — the circuit breaker's and fence recovery's backoff
	// hint to clients.
	retryAfter time.Duration
	// hold carries the claimed fence hold out of a ctlAcquire control
	// step.
	hold FenceHold
	// moved reports that the executing shard's placement epoch has
	// advanced past the request's routing epoch: nothing was executed,
	// and the submitter must re-route under the current placement.
	moved bool
	// fenced reports that a cross-shard fence covered the operation:
	// nothing was executed, and the submitter waits for the fence's
	// release and retries.
	fenced bool
}

// Options configures a Server.
type Options struct {
	// Shards is the number of independent ProteusTM systems the key space
	// is partitioned across (default 1). Each shard runs its own PolyTM
	// pool, monitor and tuner; single-key operations route to the owning
	// shard, multi-key operations commit with the cross-shard two-phase
	// protocol (see docs/sharding.md).
	Shards int
	// Partitioner selects the placement policy: shard.KindHash (the
	// default; consistent hashing, uniform placement) or shard.KindRange
	// (order-preserving boundary spans, so /kv/range fences only the
	// shards whose spans intersect the scan — see docs/sharding.md).
	Partitioner string
	// KeyUniverse sizes the range partitioner's even pre-split: shard i
	// of N starts owning [i*KeyUniverse/N, (i+1)*KeyUniverse/N), with the
	// last span running to the top of the key space (default 16384,
	// matching loadgen's default key range). Ignored by the hash
	// partitioner.
	KeyUniverse uint64
	// Workers is the number of ProteusTM worker slots per shard — the
	// ceiling of each shard's tuned parallelism degree (default 8).
	Workers int
	// QueueDepth bounds each shard's line of requests waiting for a slot:
	// a data operation that finds QueueDepth waiters is rejected with HTTP
	// 429 instead of stalling (default 1024). Control steps are exempt.
	QueueDepth int
	// AutoTune starts one RecTM adapter thread per shard (monitor →
	// explore → install) over that shard's live traffic.
	AutoTune bool
	// SamplePeriod is the monitor's KPI sampling period (default 100 ms).
	SamplePeriod time.Duration
	// Seed drives the tuning machinery; shard i tunes with Seed+i-derived
	// streams so exploration paths are independent.
	Seed uint64
	// HeapWords sizes each shard's transactional heap (default 1<<22).
	HeapWords int
	// Preload inserts keys 0..Preload-1 (value = key) before serving,
	// each into its owning shard (default 0).
	Preload int
	// MaxScanSpan clamps /kv/range spans (default 4096).
	MaxScanSpan uint64
	// CrossRetries bounds fence-acquisition attempts of one cross-shard
	// operation before it fails with 503 (default 64).
	CrossRetries int
	// SLOP99 is the p99 latency target the service sells (0 disables all
	// SLO machinery). With AutoTune it switches every shard's tuner to
	// the ThroughputUnderSLO KPI, fed by the server's accept→reply
	// latency reservoir; with or without AutoTune it arms latency-based
	// load shedding (see shedBudget).
	SLOP99 time.Duration
	// Deadline is the default per-operation deadline, measured from
	// admission: an op older than this at execution is dropped with 504 and
	// counted shed_deadline, never executed (0 disables). Clients can
	// tighten it per request with the deadline_ms query parameter.
	Deadline time.Duration
	// Fault, when set, arms the deterministic fault-injection substrate
	// (chaos testing): the injector decides at named points whether to
	// crash a cross-shard coordinator, stall it mid-acquire, pause a
	// shard's workers or spike an operation's latency. Nil (production)
	// costs one pointer comparison per hook.
	Fault *fault.Injector
	// FenceDeadline is how long a shard's fence may be held by one
	// (token, epoch) acquisition before the failure detector declares
	// the coordinator dead and recovers the fence — rolling the batch
	// forward if its decision was recorded, aborting it otherwise
	// (default 1s; negative disables detection entirely). Each shard's
	// detector ticks every FenceDeadline/4.
	FenceDeadline time.Duration
	// AutosplitShare arms the background autosplit trigger (range
	// partitioner only): when the hottest shard's share of the operations
	// routed since the last split exceeds this fraction — and at least
	// autosplitMinRouted of them have been routed, and the fleet is below
	// AutosplitMaxShards — the server installs a PlanSplitHeaviest plan
	// over that load live, as POST /admin/reshard would. 0 disables.
	AutosplitShare float64
	// AutosplitMaxShards caps autosplit growth (default 8).
	AutosplitMaxShards int
	// AutomergeShare arms the background automerge trigger, the shrink
	// counterpart of AutosplitShare: when the fleet's top shard's share of
	// the operations routed during the last poll interval falls below this
	// fraction — or the whole fleet went idle — and the placement is above
	// AutomergeMinShards, the server installs a PlanMergeColdest step
	// live, exactly as POST /admin/reshard {"plan":"merge"} would.
	// 0 disables.
	AutomergeShare float64
	// AutomergeMinShards is the floor automerge never shrinks below
	// (default: the boot shard count).
	AutomergeMinShards int
	// Logf, when set, receives operational log lines (reconfigurations,
	// drains, shutdown).
	Logf func(format string, args ...any)
}

// Fixed limits no deployment has needed to change.
const (
	// maxBatchKeys clamps the key count of /kv/mput and /kv/mget.
	maxBatchKeys = 128
	// shedBudget is the fraction of Options.SLOP99 the observed queue-wait
	// p99 may consume before new admissions are shed with 429 (counted
	// shed_latency). Shedding engages only while the target shard's line is
	// actually building (≥ 1/8 of QueueDepth waiting), so a stale reservoir
	// window cannot keep shedding an idle server.
	shedBudget = 0.5
	// latencyWindow is the size of each sliding latency reservoir behind
	// /statusz percentiles.
	latencyWindow = 8192
	// timelineTail bounds the number of timeline points /statusz returns
	// per shard, newest last.
	timelineTail = 64
)

func (o *Options) setDefaults() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Partitioner == "" {
		o.Partitioner = shard.KindHash
	}
	if o.KeyUniverse == 0 {
		o.KeyUniverse = 16384
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.HeapWords <= 0 {
		o.HeapWords = 1 << 22
	}
	if o.MaxScanSpan == 0 {
		o.MaxScanSpan = 4096
	}
	if o.CrossRetries <= 0 {
		o.CrossRetries = 64
	}
	if o.FenceDeadline == 0 {
		o.FenceDeadline = time.Second
	}
	if o.AutosplitMaxShards <= 0 {
		o.AutosplitMaxShards = 8
	}
	if o.AutomergeMinShards <= 0 {
		o.AutomergeMinShards = o.Shards
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// shardState is one shard of the serving layer: an independent ProteusTM
// system with its own store, slot tokens, line of waiting requests and
// graceful-drain state.
type shardState struct {
	idx   int
	srv   *Server
	sys   *proteustm.System
	store *Store

	// stop closes when the shard stops serving (Close, retire); wg covers
	// its failure detector.
	stop chan struct{}
	wg   sync.WaitGroup

	// The shard owns exactly Options.Workers slot tokens, one per PolyTM
	// thread slot; whoever executes a request holds one for the duration.
	// Tokens with an id inside the installed parallelism degree circulate
	// in tokens; the rest sit in parked (a shrink withdraws a token when
	// its next lessee sees id >= active, a growth re-injects parked ones).
	// Every token starts parked; startShard puts them into circulation.
	// tokenMu guards parked and quiescing, which routes every token to the
	// collector once quiesce has begun.
	//
	// A request that finds no token free waits in the shard's line: blocked
	// on tokens, which hands each token to its longest waiter, and — a
	// control step — on ctlLine, to which every returned token is offered
	// first (see release). waiting counts the requests in line.
	tokens    chan int
	ctlLine   chan int
	waiting   atomic.Int64
	workers   []*proteustm.Worker
	tokenMu   sync.Mutex
	parked    []int
	quiescing bool

	// relGen counts the control steps that may have released one of this
	// shard's fences; relCh is closed (and replaced) at each such step
	// while relWaiters is non-zero — the wake-up a fenced operation or an
	// aborted coordinator waits for instead of sleeping (see awaitRelease).
	relGen     atomic.Uint64
	relWaiters atomic.Int64
	relMu      sync.Mutex
	relCh      chan struct{}

	// relSpinner and slotSpinner admit one goroutine at a time to the spin
	// that precedes each of the shard's two blocking waits (see spin); every
	// other waiter blocks at once, so many connections cannot burn a core.
	relSpinner  atomic.Bool
	slotSpinner atomic.Bool

	// routed counts data operations admitted to this shard — the
	// per-shard load counter /statusz exposes (ops_routed) and the range
	// partitioner's PlanSplitHeaviest rebalance step consumes.
	routed atomic.Uint64
	// splitBase is routed as of the last installed split: the autosplit
	// trigger judges only the operations routed since.
	splitBase atomic.Uint64

	// executed counts data operations this shard completed (fenced
	// requeues excluded) — the progress signal the failure detector's
	// watchdog samples to drive the circuit breaker.
	executed atomic.Uint64
	// breakerUntil is the per-shard circuit breaker (see recovery.go);
	// stallUntil is the injected-stall horizon of fault.ShardStall.
	breakerUntil atomic.Int64
	stallUntil   atomic.Int64

	// detMu serializes detect, whichever goroutine calls it, and guards the
	// failure detector's state between ticks: one suspicion cell per fence
	// table entry, the executed count the last tick saw and the run of
	// ticks that saw no progress.
	detMu        sync.Mutex
	sus          [FenceSlots]fenceSus
	lastExecuted uint64
	stallTicks   int

	// drainMu implements the graceful-drain protocol: every operation
	// executes under RLock; the reconfigure hook takes the write lock
	// before the pool gates any thread, so a shrink waits for in-flight
	// operations and no waiting request is ever handed a slot that is
	// about to park. active mirrors the installed parallelism degree.
	drainMu sync.RWMutex
	active  atomic.Int64

	// retiring flips when a reshard starts retiring this shard for good
	// (a merge's donor, or a split's recipient that never flipped):
	// stragglers are answered with a re-route bounce instead of an error.
	// retired flips once its slots are collected and its system is closed.
	retiring atomic.Bool
	retired  atomic.Bool
}

// Server is the proteusd serving layer: an http.Handler whose data
// operations execute as ProteusTM atomic blocks on one or more key-space
// shards. Create with New, stop with Close.
type Server struct {
	opts Options
	// place is the epoch-stamped placement every router, coordinator and
	// recovery path loads per-operation (see shard.Epoched); a live
	// reshard swaps it atomically. fleetPtr is the matching shard slice:
	// it is grown before a new placement is installed, and readers load
	// the placement first, so a placement can never name a missing shard.
	place    *shard.Epoched
	fleetPtr atomic.Pointer[[]*shardState]
	mux      *http.ServeMux
	start    time.Time
	// clock is the server's one source of time (see clock); tests set it
	// before the server starts serving.
	clock clock

	// inflight counts submissions between admission and reply, those
	// waiting in a shard's line included; Close waits on it after setting
	// closed, so no submitter can be stranded in line when the shards stop,
	// and no cross-shard coordinator can be cut off mid-protocol.
	inflight sync.WaitGroup
	closed   atomic.Bool

	// crossSem bounds concurrent cross-shard coordinators.
	crossSem  chan struct{}
	nextToken atomic.Uint64

	// reg is the cross-shard commit-state registry — the decision record
	// fence recovery consults (see recovery.go).
	reg *crossReg

	served      [numOps]atomic.Uint64
	rejected    atomic.Uint64
	requeued    atomic.Uint64
	fenced      atomic.Uint64
	crossOps    atomic.Uint64
	crossAborts atomic.Uint64
	hookFires   atomic.Uint64
	drains      atomic.Uint64

	// crossBackoffNs totals the measured acquire-phase backoff waits
	// (surfaced as ops.cross_backoff_ms); jitterState is the seeded stream
	// behind the backoff jitter.
	crossBackoffNs atomic.Uint64
	jitterState    atomic.Uint64

	// directOps counts requests (data operations and control steps) that
	// found a slot at once or within the spin, queuedOps those that ran
	// after waiting in the shard's line. fenceWaits counts waits for a
	// fence release (fenced operations and aborted coordinators),
	// fenceWaitTimeouts those that ran out their bound unwoken, and
	// fenceWaitNs their measured total.
	directOps         atomic.Uint64
	queuedOps         atomic.Uint64
	fenceWaits        atomic.Uint64
	fenceWaitTimeouts atomic.Uint64
	fenceWaitNs       atomic.Uint64
	// leaseSpins counts direct executions whose slot token came free while
	// the submitter spun for it, fenceWaitSpun the fence waits whose release
	// landed while the waiter spun (the rest of fenceWaits blocked).
	leaseSpins    atomic.Uint64
	fenceWaitSpun atomic.Uint64

	// crossCrashes counts injected coordinator crashes; fenceRecovered
	// counts recovered orphan batches (fenceRolledForward of them
	// re-applied as decided writes, fenceAborted released with nothing
	// applied). breakerOpenTotal counts breaker open transitions and
	// breakerShed the admissions shed while open.
	crossCrashes       atomic.Uint64
	fenceRecovered     atomic.Uint64
	fenceRolledForward atomic.Uint64
	fenceAborted       atomic.Uint64
	breakerOpenTotal   atomic.Uint64
	breakerShed        atomic.Uint64

	// reshardMu serializes live resharding (one migration at a time,
	// split or merge); resharding mirrors it as the /statusz gauge.
	// reshards counts installed split flips and merges installed merge
	// flips; keysMigrated totals the key-value pairs moved by either;
	// movedBounces counts the operations bounced back for re-routing by a
	// placement-epoch mismatch (see store.PlacementStale); shardsRetired
	// counts shards drained and stopped for good (merge donors, and split
	// recipients that never flipped); and rangeConservative counts
	// hash-ring scans whose owner set fell back to every shard (see
	// shard.RangeEnumCap). maintStop/maintWG manage the background
	// maintenance loop (autosplit, automerge); maintMu serializes maintain
	// and guards its state between ticks: the routed counters the last
	// tick saw.
	reshardMu         sync.Mutex
	resharding        atomic.Bool
	reshards          atomic.Uint64
	merges            atomic.Uint64
	keysMigrated      atomic.Uint64
	movedBounces      atomic.Uint64
	shardsRetired     atomic.Uint64
	rangeConservative atomic.Uint64
	maintStop         chan struct{}
	maintWG           sync.WaitGroup
	maintMu           sync.Mutex
	prevRouted        []uint64

	// migMu guards activeMig, the record of the in-flight span move. The
	// move's install batches, its placement flip and the rollback path
	// (rollbackMove) all serialize on it, so a crashed move's partial copy
	// is cleared from the recipient exactly once, before the donor's fence
	// release can make it observable.
	migMu     sync.Mutex
	activeMig *migRecord

	// shedDeadline counts ops dropped unexecuted because their deadline
	// passed or their client hung up; shedLatency counts admissions
	// rejected because queue-wait p99 crossed the SLO budget.
	shedDeadline atomic.Uint64
	shedLatency  atomic.Uint64

	// gateP99Bits/gateNext cache the queue-wait p99 (in float64 bits /
	// next-refresh unixnano) so the shed gate costs two atomic loads per
	// admission instead of a reservoir sort.
	gateP99Bits atomic.Uint64
	gateNext    atomic.Int64

	// rangeLocal counts /kv/range scans whose owner set collapsed to one
	// shard (a plain shard transaction, no fences); rangeCross counts
	// scans that ran the cross-shard protocol; rangeFencedShards totals
	// the shards those fenced — the scan-locality observables the
	// partitioner A/B compares.
	rangeLocal        atomic.Uint64
	rangeCross        atomic.Uint64
	rangeFencedShards atomic.Uint64

	// lat is accept→reply; queueWait is accept→execution start; svc is
	// the execution alone. Separating the three is what makes a saturated
	// queue distinguishable from a slow store on /statusz.
	lat       *metrics.Reservoir
	queueWait *metrics.Reservoir
	svc       *metrics.Reservoir
}

// crossSlots is the coordinator concurrency bound.
const crossSlots = 32

// New opens one ProteusTM system per shard, builds the stores (optionally
// preloading them) and puts each shard's slot tokens into circulation. The
// returned Server is ready to serve; wire it into an http.Server as its
// Handler.
func New(opts Options) (*Server, error) {
	s, err := newServer(opts)
	if err != nil {
		return nil, err
	}
	s.startServing()
	return s, nil
}

// newServer builds a Server whose slot tokens are not yet circulating, so
// every request waits in line (tests use the split to fill a shard's line
// deterministically).
func newServer(opts Options) (*Server, error) {
	opts.setDefaults()
	part, err := shard.NewPartitioner(opts.Partitioner, opts.Shards, opts.KeyUniverse)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		opts:      opts,
		place:     shard.NewEpoched(part),
		clock:     wallClock{},
		crossSem:  make(chan struct{}, crossSlots),
		reg:       newCrossReg(),
		lat:       metrics.NewReservoir(latencyWindow),
		queueWait: metrics.NewReservoir(latencyWindow),
		svc:       metrics.NewReservoir(latencyWindow),
	}
	s.start = s.clock.Now()
	s.jitterState.Store(opts.Seed | 1)
	// Shards share nothing until they serve (own heap, own seed), so each is
	// built and preloaded on its own goroutine; the result is the same bytes
	// as building them in turn.
	keys := preloadKeys(part, opts.Preload)
	fleet := make([]*shardState, opts.Shards)
	errs := make([]error, opts.Shards)
	var wg sync.WaitGroup
	for i := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if fleet[i], errs[i] = s.newShard(i); errs[i] == nil {
				errs[i] = fleet[i].preload(keys[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err == nil {
			continue
		}
		for _, ss := range fleet {
			if ss != nil {
				ss.sys.Close() //nolint:errcheck // already failing
			}
		}
		return nil, err
	}
	s.fleetPtr.Store(&fleet)
	s.mux = s.routes()
	return s, nil
}

// fleet returns the current shard slice. When both the placement and the
// fleet are needed, load the placement first: the fleet is grown before
// a new placement is installed, so on the grow side a placement loaded
// earlier can never name a shard the fleet lacks. The shrink side breaks
// that invariant — a retire truncates the fleet after the merged
// placement flips, so a placement loaded before the flip may name the
// departed top shard. Every placement→fleet indexing site therefore
// bounds-checks and treats an out-of-range owner as a moved bounce: the
// epoch has advanced, re-route.
func (s *Server) fleet() []*shardState { return *s.fleetPtr.Load() }

// part returns the current partitioner, discarding its epoch. Routing
// paths that must detect a concurrent flip load s.place directly and
// stamp the epoch into the work they derive.
func (s *Server) part() shard.Partitioner { p, _ := s.place.Load(); return p }

// newShard opens shard i's system and store.
func (s *Server) newShard(i int) (*shardState, error) {
	opts := &s.opts
	ss := &shardState{
		idx:     i,
		srv:     s,
		stop:    make(chan struct{}),
		tokens:  make(chan int, opts.Workers),
		ctlLine: make(chan int),
		workers: make([]*proteustm.Worker, opts.Workers),
		parked:  make([]int, opts.Workers),
		relCh:   make(chan struct{}),
	}
	for id := range ss.parked {
		ss.parked[id] = id
	}
	sysOpts := []proteustm.Option{
		proteustm.WithWorkers(opts.Workers),
		proteustm.WithHeapWords(opts.HeapWords),
		// Per-shard seeds keep the shards' exploration paths independent;
		// shard 0 keeps the configured seed exactly.
		proteustm.WithSeed(opts.Seed + uint64(i)*0x9E3779B97F4A7C15),
	}
	if opts.SamplePeriod > 0 {
		sysOpts = append(sysOpts, proteustm.WithSamplePeriod(opts.SamplePeriod))
	}
	if opts.AutoTune {
		sysOpts = append(sysOpts, proteustm.WithAutoTuning())
	}
	if opts.AutoTune && opts.SLOP99 > 0 {
		// Tune throughput subject to the p99 target, fed by the server's
		// accept→reply reservoir: the latency the client actually sees,
		// queue wait included. The reservoir is server-wide (shards share
		// the admission path), which is the SLO the operator configures.
		sysOpts = append(sysOpts, proteustm.WithSLO(opts.SLOP99, func() float64 {
			return s.lat.Quantile(99)
		}))
	}
	sys, err := proteustm.Open(sysOpts...)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d: %w", i, err)
	}
	store, err := NewStore(sys.Heap())
	if err != nil {
		sys.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("serve: shard %d: %w", i, err)
	}
	ss.sys = sys
	ss.store = store
	for id := range ss.workers {
		if ss.workers[id], err = sys.Worker(id); err != nil {
			sys.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
	}
	ss.active.Store(int64(sys.CurrentConfig().Threads))
	sys.OnReconfigure(ss.reconfigureHook)
	return ss, nil
}

// startServing starts every shard serving (see startShard) and, for the
// range partitioner with autosplit or automerge armed, launches the
// background maintenance loop. The partitioner kind and the triggers never
// change, so a server that starts without the loop never needs it.
func (s *Server) startServing() {
	for _, ss := range s.fleet() {
		s.startShard(ss)
	}
	if s.opts.AutosplitShare <= 0 && s.opts.AutomergeShare <= 0 {
		return
	}
	if kind := s.part().Kind(); kind != shard.KindRange {
		s.opts.Logf("serve: autosplit/automerge disabled: requires the range partitioner (have %q)", kind)
		return
	}
	s.maintStop = make(chan struct{})
	s.maintWG.Add(1)
	go s.maintenanceLoop()
}

// startShard puts one shard's slot tokens into circulation and launches
// its failure detector (unless detection is disabled) — the per-shard half
// of startServing, reused when a live reshard grows the fleet. Tokens start
// circulating here, not in newShard, so a server built with newServer
// alone (and no tuner to grow its degree) executes nothing.
func (s *Server) startShard(ss *shardState) {
	ss.unpark()
	if s.opts.FenceDeadline > 0 {
		ss.wg.Add(1)
		go ss.detector()
	}
}

// System exposes shard 0's ProteusTM instance (for status and tests; use
// ShardSystem for the others).
func (s *Server) System() *proteustm.System { return s.fleet()[0].sys }

// Shards returns the number of key-space shards.
func (s *Server) Shards() int { return len(s.fleet()) }

// ShardSystem exposes shard i's ProteusTM instance.
func (s *Server) ShardSystem(i int) *proteustm.System { return s.fleet()[i].sys }

// preloadKeys lists, per owning shard, the keys 0..n-1 a server preloads.
func preloadKeys(part shard.Partitioner, n int) [][]uint64 {
	byShard := make([][]uint64, part.Shards())
	for k := 0; k < n; k++ {
		o := part.Owner(uint64(k))
		byShard[o] = append(byShard[o], uint64(k))
	}
	return byShard
}

// preload inserts keys (value = key) into this shard's store in batched
// setup transactions on slot 0 (always an active slot: the parallelism
// degree is at least 1). It fails when the shard's heap cannot hold them.
func (ss *shardState) preload(keys []uint64) error {
	const batch = 64
	w := ss.workers[0]
	for base := 0; base < len(keys); base += batch {
		chunk := keys[base:min(base+batch, len(keys))]
		full := atomically(w, func(tx proteustm.Txn) {
			for _, k := range chunk {
				ss.store.Put(tx, 0, k, k)
			}
		})
		if full.Err != "" {
			return fmt.Errorf("serve: preload of %d keys does not fit: the heap of shard %d (%d words) is full after %d of its %d keys",
				ss.srv.opts.Preload, ss.idx, ss.srv.opts.HeapWords, base, len(keys))
		}
	}
	return nil
}

// reconfigureHook runs at the start of every pool reconfiguration on this
// shard, before any thread gating (see proteustm.System.OnReconfigure).
// On a shrink it waits for in-flight operations to finish and publishes
// the smaller active set, so a holder of a soon-to-be-parked slot hands it
// back rather than executes; growth publishes immediately and re-injects
// the parked tokens the larger degree covers.
func (ss *shardState) reconfigureHook(old, newCfg proteustm.Config) {
	ss.srv.hookFires.Add(1)
	if int64(newCfg.Threads) < ss.active.Load() {
		ss.drainMu.Lock()
		ss.active.Store(int64(newCfg.Threads))
		ss.drainMu.Unlock()
		ss.srv.drains.Add(1)
		ss.srv.opts.Logf("serve: shard %d reconfigure %s -> %s (drained in-flight ops)", ss.idx, old, newCfg)
		return
	}
	ss.active.Store(int64(newCfg.Threads))
	ss.unpark()
	if old != newCfg {
		ss.srv.opts.Logf("serve: shard %d reconfigure %s -> %s", ss.idx, old, newCfg)
	}
}

// unpark puts every parked token inside the installed parallelism degree
// into circulation. Sends never block: the channel holds all the shard's
// tokens.
func (ss *shardState) unpark() {
	ss.tokenMu.Lock()
	defer ss.tokenMu.Unlock()
	keep := ss.parked[:0]
	for _, id := range ss.parked {
		if int64(id) < ss.active.Load() {
			ss.tokens <- id
		} else {
			keep = append(keep, id)
		}
	}
	ss.parked = keep
}

// park withdraws a token whose id a shrink left outside the parallelism
// degree. The degree is re-read under tokenMu: a growth that published
// after the lessee's check either sees the token parked (and re-injects
// it) or is seen here.
func (ss *shardState) park(id int) {
	ss.tokenMu.Lock()
	defer ss.tokenMu.Unlock()
	if ss.quiescing || int64(id) < ss.active.Load() {
		ss.tokens <- id
		return
	}
	ss.parked = append(ss.parked, id)
}

// lease takes a circulating slot token, withdrawing the ones a shrink has
// retired on the way. Without wait it fails when no token is free; with
// wait the caller stands in the shard's line until a token reaches it —
// through tokens in arrival order or, for a control step, through ctlLine
// ahead of them — or cancel fires. A lease always fails once stop is
// closed (a lessee that raced the close still runs: quiesce waits for its
// token).
func (ss *shardState) lease(wait, ctl bool, cancel <-chan struct{}) (int, bool) {
	var jump chan int // nil, never ready: data operations take their turn
	if ctl {
		jump = ss.ctlLine
	}
	for {
		select {
		case <-ss.stop:
			return 0, false
		default:
		}
		var id int
		select {
		case id = <-ss.tokens:
		default:
			if !wait {
				return 0, false
			}
			select {
			case id = <-ss.tokens:
			case id = <-jump:
			case <-ss.stop:
				return 0, false
			case <-cancel:
				return 0, false
			}
		}
		if int64(id) < ss.active.Load() {
			return id, true
		}
		ss.park(id)
	}
}

// release returns a slot token: to a control step waiting in line if
// there is one, else to the circulating tokens (and so to the longest
// waiting data operation). The send to tokens never blocks: the channel
// holds all the shard's tokens.
func (ss *shardState) release(slot int) {
	select {
	case ss.ctlLine <- slot:
	default:
		ss.tokens <- slot
	}
}

// run executes req under a leased slot on the calling goroutine. A
// request that finds no slot free spins for one (spinForSlot) and then
// waits in the shard's line. It leaves the line unexecuted — ok=false,
// resp its answer — when the line already holds QueueDepth waiters (data
// operations only: 429), when cancel fires (see leftLine) or when the shard
// stops (stopAnswer). A slot a shrink retired between lease and execution
// is handed back and another leased.
func (ss *shardState) run(req *request, cancel <-chan struct{}) (response, bool) {
	s := ss.srv
	waited := false
	for {
		slot, leased := ss.lease(false, req.ctl, nil)
		if !leased && !waited && ss.spinForSlot() {
			if slot, leased = ss.lease(false, req.ctl, nil); leased {
				s.leaseSpins.Add(1)
			}
		}
		if !leased {
			if n := ss.waiting.Add(1); !req.ctl && n > int64(s.opts.QueueDepth) {
				ss.waiting.Add(-1)
				s.rejected.Add(1)
				return response{Err: "shard line full", code: http.StatusTooManyRequests}, false
			}
			slot, leased = ss.lease(true, req.ctl, cancel)
			ss.waiting.Add(-1)
			if !leased {
				return ss.leftLine(req), false
			}
			waited = true
		}
		resp, ran := ss.process(slot, req)
		ss.release(slot)
		if ran {
			if waited {
				s.queuedOps.Add(1)
			} else {
				s.directOps.Add(1)
			}
			return resp, true
		}
		s.requeued.Add(1)
	}
}

// leftLine is the answer of a request that left the shard's line without
// a slot: stopAnswer's once the shard stopped, and otherwise — its cancel
// fired — not-applied for a control step and 499 for a data operation,
// whose client hung up and which is counted shed_deadline as it leaves.
// The 499 mirrors the de-facto "client closed request" status — nobody is
// left to read it.
func (ss *shardState) leftLine(req *request) response {
	select {
	case <-ss.stop:
		return ss.stopAnswer(req)
	default:
	}
	if req.ctl {
		return response{}
	}
	ss.srv.shedDeadline.Add(1)
	return response{Err: "client canceled", code: 499}
}

// spin polls ready until spinBudget after t0 (now on clk, as the caller
// read it) and reports whether it came true. It is the prefix of a blocking
// wait, never the wait itself: it does not run on a single P (whoever would
// make ready true needs that P), and only while gate — the wait point's one
// spinner place — is free. The refusal reads the real P count whatever clk
// is; how it refuses under a harness's clock is left to that harness.
func spin(clk clock, gate *atomic.Bool, t0 time.Time, ready func() bool) bool {
	if runtime.GOMAXPROCS(0) == 1 || !gate.CompareAndSwap(false, true) {
		return false
	}
	defer gate.Store(false)
	for i := 1; ; i++ {
		if ready() {
			return true
		}
		if clk.Now().Sub(t0) >= spinBudget {
			return false
		}
		if i%spinYieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// spinForSlot is the spin of a submitter that found no free slot token: it
// reports that a token was seen free within the budget (the caller still has
// to lease it). With requests waiting in line it does not run — they were
// here first, and the next token goes to them.
func (ss *shardState) spinForSlot() bool {
	if ss.waiting.Load() > 0 {
		return false
	}
	clk := ss.srv.clock
	return spin(clk, &ss.slotSpinner, clk.Now(), func() bool { return len(ss.tokens) > 0 })
}

// drain stops shard ss for good, the one teardown Close and retireShard
// share: close stop (no slot can be leased from here), collect every slot
// token, wait out the failure detector, detach the tuner hook, log the
// final config under what, and close the ProteusTM system.
func (ss *shardState) drain(what string) error {
	close(ss.stop)
	ss.quiesce()
	ss.wg.Wait()
	ss.sys.OnReconfigure(nil)
	ss.srv.opts.Logf("serve: shard %d %s (final config %s)", ss.idx, what, ss.sys.CurrentConfig())
	return ss.sys.Close()
}

// quiesce collects every slot token after stop has closed, so it returns
// only when no process call is running or can start on this shard.
func (ss *shardState) quiesce() {
	ss.tokenMu.Lock()
	ss.quiescing = true
	home := len(ss.parked)
	ss.parked = nil
	ss.tokenMu.Unlock()
	for ; home < len(ss.workers); home++ {
		<-ss.tokens
	}
}

// process is the shard's one execution body: it runs req on the leased
// slot and returns its response. ran=false means a shrink retired the slot
// before anything executed.
func (ss *shardState) process(slot int, req *request) (resp response, ran bool) {
	s := ss.srv
	// Fault-injection hooks (nil injector: one pointer compare). A fired
	// shard-stall freezes every slot of this shard — each holder sleeps out
	// the shared horizon — which is the no-progress signature the circuit
	// breaker trips on.
	if inj := s.opts.Fault; inj != nil {
		if d, ok := inj.Fire(fault.ShardStall, ss.idx); ok {
			ss.extendStall(s.clock.Now().Add(d))
		}
		ss.sleepInjectedStall()
		if !req.ctl {
			if d, ok := inj.Fire(fault.OpDelay, ss.idx); ok {
				s.clock.Sleep(d)
			}
		}
	}
	// Deadline/cancellation gate: a data op whose client hung up or whose
	// deadline passed is dropped here, never executed. Control steps are
	// exempt — a fence release must always run.
	if !req.ctl && req.expired(s.clock) {
		s.shedDeadline.Add(1)
		return response{Err: "deadline exceeded", code: http.StatusGatewayTimeout}, true
	}
	ss.drainMu.RLock()
	if int64(slot) >= ss.active.Load() {
		ss.drainMu.RUnlock()
		return response{}, false
	}
	w := ss.workers[slot]
	if req.ctl {
		resp = ss.runCtlStep(req, w, slot)
		ss.drainMu.RUnlock()
		if req.releases {
			ss.fenceReleased()
		}
		return resp, true
	}
	t0 := s.clock.Now()
	resp = ss.execute(w, slot, req)
	t1 := s.clock.Now()
	ss.drainMu.RUnlock()
	if !resp.fenced {
		ss.account(req, resp, t0, t1)
	}
	return resp, true
}

// account books one executed data operation: queue wait, service time and
// the served/executed counters. A bounced operation (resp.moved) executed
// nothing and is not booked.
func (ss *shardState) account(req *request, resp response, t0, t1 time.Time) {
	if resp.moved {
		return
	}
	ss.srv.queueWait.Observe(msBetween(req.accepted, t0))
	ss.srv.svc.Observe(msBetween(t0, t1))
	ss.srv.served[req.op].Add(1)
	ss.executed.Add(1)
}

// fenceReleased publishes that a control step which may have released one
// of this shard's fences has committed, waking every waiter.
func (ss *shardState) fenceReleased() {
	ss.relGen.Add(1)
	if ss.relWaiters.Load() == 0 {
		return
	}
	ss.relMu.Lock()
	close(ss.relCh)
	ss.relCh = make(chan struct{})
	ss.relMu.Unlock()
}

// awaitRelease waits until the shard's release generation moves past gen —
// the value the caller read before the attempt a fence refused — or bound
// elapses, and returns how long it waited and whether it ran into the bound.
// The caller holds no slot token. A fence is held for microseconds, so the
// waiter first spins for the release (see spin) and registers for the
// wake-up only when that did not see it. The bound is what the fixed
// schedule would have slept, so a wake-up that never comes (a fence cleared
// outside the protocol's release steps) degrades to polling and liveness
// never rests on the notification.
func (ss *shardState) awaitRelease(gen uint64, bound time.Duration) (d time.Duration, timedOut bool) {
	s := ss.srv
	t0 := s.clock.Now()
	if spin(s.clock, &ss.relSpinner, t0, func() bool { return ss.relGen.Load() != gen }) {
		s.fenceWaitSpun.Add(1)
	} else {
		ss.relWaiters.Add(1)
		ss.relMu.Lock()
		ch := ss.relCh
		ss.relMu.Unlock()
		// Registered before the generation check: a release that lands after
		// the check sees the waiter and closes ch.
		if ss.relGen.Load() == gen {
			select {
			case <-ch:
			case <-s.clock.After(bound):
				timedOut = true
				s.fenceWaitTimeouts.Add(1)
			}
		}
		ss.relWaiters.Add(-1)
	}
	d = s.clock.Now().Sub(t0)
	s.fenceWaits.Add(1)
	s.fenceWaitNs.Add(uint64(d))
	return d, timedOut
}

// msBetween converts a time span to milliseconds for the reservoirs.
func msBetween(from, to time.Time) float64 {
	return float64(to.Sub(from).Nanoseconds()) / 1e6
}

// stopAnswer is the reply for a request caught by this shard's closed
// stop channel. A retiring shard (see retireShard) answers with a bounce
// instead of an error: the placement no longer names it, so data
// operations re-route under the fresh placement (moved) and control steps
// report not-applied, sending their coordinator back through the
// placement-epoch re-check. A shard whose whole server is shutting down
// keeps the hard error.
func (ss *shardState) stopAnswer(req *request) response {
	if !ss.retiring.Load() {
		return response{Err: "server shutting down"}
	}
	if req.ctl {
		return response{}
	}
	return response{moved: true}
}

// opFenced reports whether a held fence covers req, which then comes
// back unexecuted: a single-key or batch operation intersects its keys'
// signature bits with the held entries (a false positive costs one
// spurious wait; a false negative is impossible), a local range scan
// checks conservatively against any held entry, and a deque operation
// checks as the bottom key of the deque-reserved window. A whole-shard
// hold therefore covers every operation.
func (ss *shardState) opFenced(tx proteustm.Txn, req *request) bool {
	// With a single shard no cross-shard commit ever takes a fence, so
	// skip the per-operation fence read entirely.
	if len(ss.srv.fleet()) == 1 {
		return false
	}
	switch req.op {
	case opGet, opPut, opDel, opCAS:
		return ss.store.FencedKey(tx, req.key)
	case opMPut, opMGet:
		return ss.store.FencedSig(tx, KeyFenceSig(req.keys))
	case opRange:
		return ss.store.FencedAny(tx)
	default:
		return ss.store.FencedKey(tx, DequeReservedLo)
	}
}

// applyOp executes one data operation inside an open transaction. It
// reports fenced=true (and performs no writes) when a cross-shard fence
// covers the operation: the caller must requeue it rather than answer
// it. The response is reset at the top because the TM retries the
// enclosing atomic block on aborts, so its results must rebuild cleanly
// on each attempt.
func (ss *shardState) applyOp(tx proteustm.Txn, slot int, req *request, resp *response) (fenced bool) {
	*resp = response{}
	// Placement-epoch gate: a KV operation routed under a placement a
	// live reshard has since replaced may be on the wrong shard, so it
	// bounces back for re-routing (resp.moved) instead of executing.
	// Reading the word inside this transaction closes the route/flip
	// race — the donor's bump commits atomically with the moved span's
	// deletion. Deque operations are exempt: the deque is pinned to its
	// home shard and never migrates.
	switch req.op {
	case opGet, opPut, opDel, opCAS, opRange, opMPut, opMGet:
		if ss.store.PlacementStale(tx, req.routingEpoch) {
			resp.moved = true
			return false
		}
	}
	if ss.opFenced(tx, req) {
		return true
	}
	store := ss.store
	switch req.op {
	case opGet:
		resp.Val, resp.Found = store.Get(tx, req.key)
	case opPut:
		resp.Existed = store.Put(tx, slot, req.key, req.val)
		resp.Applied = true
	case opDel:
		resp.Applied = store.Delete(tx, slot, req.key)
	case opCAS:
		resp.Val, resp.Applied = store.CAS(tx, slot, req.key, req.old, req.newv)
	case opRange:
		resp.Count, resp.Sum = store.Range(tx, req.lo, req.hi)
	case opMPut:
		for i, k := range req.keys {
			store.Put(tx, slot, k, req.vals[i])
		}
		resp.Applied = true
	case opMGet:
		vals := make([]uint64, len(req.keys))
		present := make([]bool, len(req.keys))
		for i, k := range req.keys {
			vals[i], present[i] = store.Get(tx, k)
		}
		resp.Vals, resp.Present = vals, present
	case opLPush:
		store.PushLeft(tx, slot, req.val)
		resp.Applied = true
	case opRPush:
		store.PushRight(tx, slot, req.val)
		resp.Applied = true
	case opLPop:
		resp.Val, resp.Found = store.PopLeft(tx, slot)
	case opRPop:
		resp.Val, resp.Found = store.PopRight(tx, slot)
	case opLLen:
		resp.Len = store.Len(tx)
	}
	return false
}

// heapFull is the answer to an operation the shard's heap has no room for.
var heapFull = response{Err: "shard heap full", code: http.StatusInsufficientStorage}

// heapFullAnswer, deferred around atomic blocks, turns the panic of an
// allocation the shard's heap has no room for into the heapFull answer. The
// TM has rolled the block back by the time the panic gets here (tm.Run and
// polytm.Pool.Atomic abort the attempt and leave the thread gate first), so
// nothing was applied and the shard keeps serving. Any other panic continues.
func heapFullAnswer(resp *response) {
	r := recover()
	if r == nil {
		return
	}
	if err, ok := r.(error); !ok || !errors.Is(err, tm.ErrHeapExhausted) {
		panic(r)
	}
	*resp = heapFull
}

// atomically runs fn as one atomic block on w and answers heapFull when the
// block could not allocate; otherwise the answer is empty and whatever fn
// did has committed.
func atomically(w *proteustm.Worker, fn func(proteustm.Txn)) (full response) {
	defer heapFullAnswer(&full)
	w.Atomic(fn)
	return
}

// runCtlStep runs control step req as one transaction on w — the one place
// a fence hold is checked, used and released (see request.ctl). A guarded
// step answers Applied iff its hold was current; a step whose transaction
// exhausts the heap (a migration install, a cross-shard apply) answers
// heapFull with nothing applied.
func (ss *shardState) runCtlStep(req *request, w *proteustm.Worker, slot int) (resp response) {
	defer heapFullAnswer(&resp)
	guarded := req.hold.Token != 0
	w.Atomic(func(tx proteustm.Txn) {
		resp = response{}
		if guarded && !ss.store.HoldsFence(tx, req.hold) {
			return
		}
		switch req.kind {
		case stepAcquire:
			resp.hold, resp.Applied = ss.store.AcquireFence(tx, req.key, req.val, req.lo)
		case stepApply:
			resp = req.part.apply(tx, slot, ss.store)
		default:
			if req.step != nil {
				resp = req.step(tx, slot)
			}
		}
		if guarded {
			resp.Applied = true
			if req.releases {
				ss.store.ReleaseFence(tx, req.hold)
			}
		}
	})
	return resp
}

// execute runs one data operation as a single atomic block on worker w. A
// response with fenced set means a cross-shard fence covered the operation
// and nothing was executed.
func (ss *shardState) execute(w *proteustm.Worker, slot int, req *request) response {
	var resp response
	full := atomically(w, func(tx proteustm.Txn) {
		if ss.applyOp(tx, slot, req, &resp) {
			resp = response{fenced: true}
		}
	})
	if full.Err != "" {
		return full
	}
	return resp
}

// armDeadline stamps the admission instant and derives the effective
// deadline: the tighter of the server default (Options.Deadline) and the
// request's own budget (the wire's deadline_ms), anchored at acceptance.
// Only the first admission stamps: a request that bounced back for
// re-routing keeps its admission instant and its deadline.
func (s *Server) armDeadline(req *request) {
	if !req.accepted.IsZero() {
		return
	}
	req.accepted = s.clock.Now()
	budget := s.opts.Deadline
	if req.budget > 0 && (budget == 0 || req.budget < budget) {
		budget = req.budget
	}
	if budget > 0 {
		req.deadline = req.accepted.Add(budget)
	}
}

// queueWaitP99 returns the observed queue-wait p99 in milliseconds,
// recomputed from the reservoir at most every 25 ms so the admission path
// never pays a sort per request.
func (s *Server) queueWaitP99() float64 {
	now := s.clock.Now().UnixNano()
	next := s.gateNext.Load()
	if now >= next && s.gateNext.CompareAndSwap(next, now+(25*time.Millisecond).Nanoseconds()) {
		s.gateP99Bits.Store(math.Float64bits(s.queueWait.Quantile(99)))
	}
	return math.Float64frombits(s.gateP99Bits.Load())
}

// shedForLatency reports whether an admission to ss must be shed because
// the observed queue-wait p99 has crossed the SLO budget. The occupancy
// guard keeps a stale reservoir window (old samples linger under light
// load) from shedding an idle server.
func (s *Server) shedForLatency(ss *shardState) bool {
	if s.opts.SLOP99 <= 0 {
		return false
	}
	if ss.waiting.Load() < int64(max(1, s.opts.QueueDepth/8)) {
		return false
	}
	budgetMs := shedBudget * float64(s.opts.SLOP99) / float64(time.Millisecond)
	return s.queueWaitP99() > budgetMs
}

// submit admits one request to shard ss and executes it on the calling
// goroutine, which waits in the shard's line when no slot token is free —
// where a full line, like a queue-wait p99 over the SLO budget, rejects
// immediately (the 429 paths) rather than stalling the client. An
// operation a cross-shard fence covers comes back unexecuted; the
// submitter, holding no slot, waits for the fence's release and retries.
// The inflight registration precedes the closed-check, so Close cannot
// observe an empty system while a submitter is between its check and its
// execution.
func (s *Server) submit(ss *shardState, req *request) (response, int) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.closed.Load() {
		return response{Err: "server shutting down"}, http.StatusServiceUnavailable
	}
	var cancel <-chan struct{}
	if req.ctx != nil {
		if req.ctx.Err() != nil {
			// Nobody is waiting for the answer: drop the op before it can
			// take a slot or a place in line.
			s.shedDeadline.Add(1)
			return response{Err: "client canceled"}, 499
		}
		cancel = req.ctx.Done()
	}
	if ra := ss.breakerRetryAfter(); ra > 0 {
		// The shard's circuit breaker is open: it has requests in line it
		// is not executing. Shed with a Retry-After instead of lengthening
		// the line.
		s.breakerShed.Add(1)
		return response{Err: "shard circuit breaker open",
				code: http.StatusServiceUnavailable, retryAfter: ra},
			http.StatusServiceUnavailable
	}
	s.armDeadline(req)
	if s.shedForLatency(ss) {
		s.shedLatency.Add(1)
		return response{Err: "queue-wait p99 over SLO budget"}, http.StatusTooManyRequests
	}
	for pass := 0; ; pass++ {
		// Read before the attempt: a release that lands between a fenced
		// attempt and the wait below must not be slept through.
		gen := ss.relGen.Load()
		resp, ran := ss.run(req, cancel)
		if !ran && resp.code == http.StatusTooManyRequests {
			return resp, resp.code // the line was full: never admitted
		}
		if pass == 0 {
			ss.routed.Add(1)
		}
		if !ran && resp.code != 0 {
			return resp, resp.code // the client hung up in line
		}
		if resp.fenced {
			s.fenced.Add(1)
			if req.fenceTries++; req.fenceTries > maxFenceTries {
				return response{Err: "shard fence held too long"}, http.StatusServiceUnavailable
			}
			s.requeued.Add(1)
			ss.awaitRelease(gen, fencedYield)
			continue
		}
		s.lat.Observe(msBetween(req.accepted, s.clock.Now()))
		if resp.code != 0 {
			return resp, resp.code
		}
		if resp.Err != "" {
			return resp, http.StatusServiceUnavailable
		}
		return resp, http.StatusOK
	}
}

// Close drains the shards' lines, stops the shards and shuts every shard's
// ProteusTM system down. In-flight and waiting requests — and in-flight
// cross-shard commits — all complete; new submissions are rejected with
// 503. Shards drain one at a time so the shutdown log attributes progress
// per shard.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Stop the maintenance loop (autosplit/automerge) and wait out any
	// in-flight migration before draining, so no reshard races the shard
	// teardown below.
	if s.maintStop != nil {
		close(s.maintStop)
		s.maintWG.Wait()
	}
	s.reshardMu.Lock()
	s.reshardMu.Unlock() //nolint:staticcheck // barrier: wait out a live migration
	// Every submission that passed the closed-check has registered in
	// inflight, and the shards are still serving, so waiting here both
	// drains the lines and guarantees every admitted request (including
	// every cross-shard coordinator) got its reply before the shards stop.
	s.inflight.Wait()
	var firstErr error
	for _, ss := range s.fleet() {
		if err := ss.drain("drained"); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.opts.Logf("serve: drained and stopped (shards=%d served=%d rejected=%d cross=%d)",
		len(s.fleet()), s.totalServed(), s.rejected.Load(), s.crossOps.Load())
	return firstErr
}

func (s *Server) totalServed() uint64 {
	var total uint64
	for i := range s.served {
		total += s.served[i].Load()
	}
	return total
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// routes builds the endpoint mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/admin/reshard", s.handleReshard)
	mux.HandleFunc("/kv/get", s.opHandler(opGet, "key"))
	mux.HandleFunc("/kv/put", s.opHandler(opPut, "key", "val"))
	mux.HandleFunc("/kv/del", s.opHandler(opDel, "key"))
	mux.HandleFunc("/kv/cas", s.opHandler(opCAS, "key", "old", "new"))
	mux.HandleFunc("/kv/range", s.handleRange)
	mux.HandleFunc("/kv/mput", s.batchHandler(opMPut))
	mux.HandleFunc("/kv/mget", s.batchHandler(opMGet))
	mux.HandleFunc("/list/lpush", s.opHandler(opLPush, "val"))
	mux.HandleFunc("/list/rpush", s.opHandler(opRPush, "val"))
	mux.HandleFunc("/list/lpop", s.opHandler(opLPop))
	mux.HandleFunc("/list/rpop", s.opHandler(opRPop))
	mux.HandleFunc("/list/len", s.opHandler(opLLen))
	return mux
}

// movedRetries bounds how many times a bounced operation re-routes: one
// flip needs one bounce, the slack covers back-to-back splits.
const movedRetries = 8

// submitRouted admits one data operation and re-routes it when a live
// reshard flips the placement under it. Each try loads one (placement,
// epoch) pair, stamps the epoch into req and computes the owner set from
// it: a key's owner, the deque's home shard dequeHome (the deque is not
// partitioned — see docs/sharding.md), every key's owner of a batch, or
// the shards a scan's interval maps onto. A request with one owner runs
// there through submit, atomic by the shard's own transaction; one with
// several runs the two-phase commit (crossProtocol). Either answers
// moved, having executed nothing, when the placement flipped after
// routing: the shard through its epoch gate, the protocol through its
// epoch re-check with every fence held.
func (s *Server) submitRouted(req *request) (response, int) {
	for try := 0; ; try++ {
		part, epoch := s.place.Load()
		req.routingEpoch = epoch
		var buf [inlineKeys]int
		owners := buf[:0]
		switch req.op {
		case opGet, opPut, opDel, opCAS:
			owners = append(owners, part.Owner(req.key))
		case opMPut, opMGet:
			for _, k := range req.keys {
				owners = append(owners, part.Owner(k))
			}
		case opRange:
			// Fence only the shards whose key spans intersect the scan. The
			// partitioner's owner set is exact for the range partitioner and
			// for narrow hashed scans, conservative (every shard) for wide
			// hashed ones — never fewer than the shards that could hold a key
			// in [lo, hi], which is what keeps the snapshot atomic.
			owners = part.OwnersInRange(req.lo, req.hi)
			if part.Kind() == shard.KindHash && part.Shards() > 1 && req.hi-req.lo >= shard.RangeEnumCap {
				// The hash partitioner gave up enumerating: this scan fences
				// the entire fleet (ops.range_conservative in /statusz).
				s.rangeConservative.Add(1)
			}
			if len(owners) == 1 {
				s.rangeLocal.Add(1)
			} else {
				s.rangeCross.Add(1)
				s.rangeFencedShards.Add(uint64(len(owners)))
			}
		default:
			owners = append(owners, dequeHome)
		}
		single := len(owners) > 0
		for _, o := range owners {
			single = single && o == owners[0]
		}
		var resp response
		var code int
		if fleet := s.fleet(); single && owners[0] < len(fleet) {
			resp, code = s.submit(fleet[owners[0]], req)
		} else if single {
			// The owner the placement named was merged away between the
			// placement and fleet loads: re-route under the fresh placement.
			resp.moved = true
		} else {
			resp, code = s.crossProtocol(req, owners)
		}
		if !resp.moved {
			return resp, code
		}
		if try >= movedRetries {
			return response{Err: "placement moved during retries"}, http.StatusServiceUnavailable
		}
		s.movedBounces.Add(1)
	}
}

// opHandler builds the handler for one single-key or deque operation,
// parsing the named uint64 query parameters and routing to the owning
// shard.
func (s *Server) opHandler(op opKind, params ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req := &request{op: op, ctx: r.Context()}
		q := r.URL.Query()
		if ok := parseDeadline(w, q, req); !ok {
			return
		}
		for _, name := range params {
			raw := q.Get(name)
			v, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, response{Err: fmt.Sprintf("parameter %q: want uint64, got %q", name, raw)})
				return
			}
			switch name {
			case "key":
				req.key = v
			case "val":
				req.val = v
			case "old":
				req.old = v
			case "new":
				req.newv = v
			}
		}
		resp, code := s.submitRouted(req)
		writeResp(w, code, resp)
	}
}

// handleRange serves /kv/range. The scan fences only the shards the
// partitioner maps the interval onto (OwnersInRange): under hashing a
// wide scan still touches every shard, but under the range partitioner —
// and for narrow scans under either — the owner set shrinks, down to a
// plain single-shard transaction with no fence protocol at all.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var lo, hi uint64
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *uint64
	}{{"lo", &lo}, {"hi", &hi}} {
		raw := q.Get(p.name)
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, response{Err: fmt.Sprintf("parameter %q: want uint64, got %q", p.name, raw)})
			return
		}
		*p.dst = v
	}
	if hi < lo {
		writeJSON(w, http.StatusBadRequest, response{Err: "range: hi < lo"})
		return
	}
	if hi-lo > s.opts.MaxScanSpan {
		hi = lo + s.opts.MaxScanSpan
	}
	req := &request{op: opRange, lo: lo, hi: hi, ctx: r.Context()}
	if ok := parseDeadline(w, q, req); !ok {
		return
	}
	resp, code := s.submitRouted(req)
	writeResp(w, code, resp)
}

// parseDeadline reads the optional deadline_ms parameter of the request's
// parsed query into req.budget, answering 400 (and returning false) on a
// malformed value.
func parseDeadline(w http.ResponseWriter, q url.Values, req *request) bool {
	raw := q.Get("deadline_ms")
	if raw == "" {
		return true
	}
	ms, err := strconv.ParseFloat(raw, 64)
	if err != nil || ms <= 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
		writeJSON(w, http.StatusBadRequest, response{Err: fmt.Sprintf("parameter \"deadline_ms\": want positive milliseconds, got %q", raw)})
		return false
	}
	req.budget = time.Duration(ms * float64(time.Millisecond))
	return true
}

// batchHandler serves /kv/mput and /kv/mget: comma-separated uint64 key
// (and for mput, value) lists, committed atomically across every
// participating shard.
func (s *Server) batchHandler(op opKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		keys, err := parseUintList(q.Get("keys"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, response{Err: fmt.Sprintf("parameter \"keys\": %v", err)})
			return
		}
		if len(keys) == 0 {
			writeJSON(w, http.StatusBadRequest, response{Err: "parameter \"keys\": at least one key required"})
			return
		}
		if len(keys) > maxBatchKeys {
			writeJSON(w, http.StatusBadRequest, response{Err: fmt.Sprintf("batch of %d keys exceeds limit %d", len(keys), maxBatchKeys)})
			return
		}
		req := &request{op: op, keys: keys, ctx: r.Context()}
		if ok := parseDeadline(w, q, req); !ok {
			return
		}
		if op == opMPut {
			vals, err := parseUintList(q.Get("vals"))
			if err != nil {
				writeJSON(w, http.StatusBadRequest, response{Err: fmt.Sprintf("parameter \"vals\": %v", err)})
				return
			}
			if len(vals) != len(keys) {
				writeJSON(w, http.StatusBadRequest, response{Err: fmt.Sprintf("got %d keys but %d vals", len(keys), len(vals))})
				return
			}
			req.vals = vals
		}
		resp, code := s.submitRouted(req)
		writeResp(w, code, resp)
	}
}

// parseUintList parses a comma-separated uint64 list.
func parseUintList(raw string) ([]uint64, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, nil
	}
	out := make([]uint64, 0, strings.Count(raw, ",")+1)
	for more := true; more; {
		var p string
		p, raw, more = strings.Cut(raw, ",")
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("want uint64 list, got %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort write to client
}

// writeResp writes an operation response, surfacing its Retry-After
// hint (circuit-breaker shed, fence recovery pending) as the standard
// header, rounded up to whole seconds as the header requires.
func writeResp(w http.ResponseWriter, code int, resp response) {
	if resp.retryAfter > 0 {
		secs := int(math.Ceil(resp.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, code, resp)
}
