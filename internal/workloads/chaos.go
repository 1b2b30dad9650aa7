package workloads

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/shard"
	"repro/internal/tm"
)

// ServiceChaos is the deterministic twin of proteusd's self-healing
// cross-shard commit path (internal/serve with fault injection): a
// sharded store whose cross-shard batches run the epoch-guarded fence
// protocol, a schedule of injected failures — coordinator crashes that
// abandon decided batches with their fences held, and foreign wedges that
// seize a fence from outside the protocol — and an in-workload failure
// detector that recovers every orphan from its recorded commit state:
// decided batches roll forward, foreign wedges abort-release.
//
// Time is operation count, not wall clock: fence heartbeats are stamped
// with the acquiring operation's sequence number and the orphan deadline
// is DeadlineOps operations, so a fixed seed injects the same faults and
// recovers them at the same operations every run — the property the
// byte-pinned service-chaos goldens lean on. The live daemon's detector
// (wall-clock deadline, per-shard goroutine) is exercised by the serve
// tests and the chaos e2e job; this workload pins the protocol algebra.
type ServiceChaos struct {
	// Shards is the number of key-space shards.
	Shards int
	// KeyRange bounds the keys.
	KeyRange int
	// InitialSize pre-populates the stores (0 = KeyRange/2).
	InitialSize int
	// CrossEvery makes every Nth operation a cross-shard batch put.
	CrossEvery int
	// BatchKeys is the batch width.
	BatchKeys int
	// FaultKind selects the injected failure: "crash" abandons every
	// FaultEvery-th prepared batch post-decision (roll-forward leg),
	// "stall" wedges a fence under a foreign token after every
	// FaultEvery-th batch commits (abort leg).
	FaultKind string
	// FaultEvery is the injection cadence in cross-shard batches;
	// FaultCount caps total injections, so a long run ends with a quiet
	// tail in which every orphan is recovered before metrics are
	// captured.
	FaultEvery int
	FaultCount int
	// DeadlineOps is the orphan deadline in operations: a fence whose
	// heartbeat is DeadlineOps operations old is recovered.
	DeadlineOps int

	kv  *svcShards
	ops atomic.Uint64

	// recs is the commit-state registry: the decided batches whose
	// coordinator crashed, by token, which recovery rolls forward.
	// outstanding gates the detector scan so fault-free stretches pay one
	// atomic load per op.
	mu          sync.Mutex
	recs        map[uint64]*chaosRec
	outstanding atomic.Int64

	crashes    atomic.Uint64
	stalls     atomic.Uint64
	batches    atomic.Uint64
	committed  atomic.Uint64
	blocked    atomic.Uint64
	recovered  atomic.Uint64
	rolledFwd  atomic.Uint64
	abortedRec atomic.Uint64
	fencedSkip atomic.Uint64
}

// chaosRec is one decided-but-unfinished batch: everything the detector
// needs to finish it without its coordinator.
type chaosRec struct {
	hold *svcHold
	keys []uint64
	val  uint64
}

// chaosWedge marks the token of a fence seized from outside the protocol.
const chaosWedge = uint64(1) << 63

// Name implements Workload.
func (s *ServiceChaos) Name() string { return "service-chaos" }

// Setup implements Workload.
func (s *ServiceChaos) Setup(h *tm.Heap, rng *Rand) error {
	if s.FaultKind != "crash" && s.FaultKind != "stall" {
		return fmt.Errorf("chaos: unknown fault kind %q (want crash or stall)", s.FaultKind)
	}
	if err := positive("chaos", s.Shards, s.KeyRange, s.CrossEvery, s.BatchKeys, s.FaultEvery, s.DeadlineOps); err != nil {
		return err
	}
	kv, err := newSvcShards(h, rng, s.Shards, shard.New(s.Shards), s.KeyRange, s.InitialSize)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	s.kv = kv
	s.recs = make(map[uint64]*chaosRec)
	return nil
}

// Op implements Workload: run the failure detector, then either one
// cross-shard batch put (every CrossEvery-th call, possibly faulted) or
// one single-key operation on the owning shard under its fence.
func (s *ServiceChaos) Op(r Runner, self int, rng *Rand) {
	n := s.ops.Add(1)
	if s.outstanding.Load() > 0 {
		s.detect(r, self, n)
	}
	if n%uint64(s.CrossEvery) == 0 {
		s.crossBatch(r, self, rng, n)
		return
	}
	k := uint64(rng.Intn(s.KeyRange))
	p := rng.Float64()
	// An orphaned fence persists until the detector's deadline, so a
	// fenced operation is skipped (and counted), not spun on — the
	// workload analogue of the serve worker's requeue.
	if _, fenced, _ := s.kv.routed(r, self, k, s.kv.place.Load(), pointOp(serviceMixes["mixed"], p, self, k, n)); fenced {
		s.fencedSkip.Add(1)
	}
}

// crossBatch runs one cross-shard batch put: ordered epoch-bumping
// acquire with heartbeat, then either the injected fault or the normal
// guarded apply+release.
func (s *ServiceChaos) crossBatch(r Runner, self int, rng *Rand, n uint64) {
	keys := make([]uint64, s.BatchKeys)
	for i := range keys {
		keys[i] = uint64(rng.Intn(s.KeyRange))
	}
	part := s.kv.place.Load().part
	h, ok := s.kv.acquire(r, self, part.Participants(keys), n, n, 0)
	if !ok {
		// A participant's fence is orphaned by an outstanding fault: the
		// acquire aborted all, and the detector clears the orphan at its
		// deadline, not mid-batch.
		s.blocked.Add(1)
		return
	}
	b := s.batches.Add(1)
	if s.FaultKind == "crash" && s.faultInjected(b) {
		// Coordinator crash between prepare and apply: the batch is
		// decided, so its record stays behind for the detector to roll
		// forward; its fences stay held.
		s.mu.Lock()
		s.recs[n] = &chaosRec{hold: h, keys: keys, val: n}
		s.mu.Unlock()
		s.crashes.Add(1)
		s.outstanding.Add(1)
		return
	}
	s.kv.commit(r, self, h, putOwned(part, keys, self, n))
	s.committed.Add(1)

	if s.FaultKind == "stall" && s.faultInjected(b) {
		// Foreign wedge: seize one shard's fence from outside the
		// protocol. No decision record exists, so recovery must abort it.
		if _, ok := s.kv.acquire(r, self, []int{int(n) % s.Shards}, chaosWedge|n, n, 0); ok {
			s.stalls.Add(1)
			s.outstanding.Add(1)
		}
	}
}

// faultInjected reports whether batch b is on the fault schedule, under
// the FaultCount cap.
func (s *ServiceChaos) faultInjected(b uint64) bool {
	return b%uint64(s.FaultEvery) == 0 && s.crashes.Load()+s.stalls.Load() < uint64(s.FaultCount)
}

// detect is the failure-detector step: a fence whose heartbeat is
// DeadlineOps operations old is recovered — the whole batch rolled
// forward if its decision was recorded, the hold released with nothing
// applied if it is a foreign wedge. A live coordinator's hold is left
// alone: on real goroutines one can be preempted past the deadline, and
// unlike serve the twin knows it is alive.
func (s *ServiceChaos) detect(r Runner, self int, n uint64) {
	for i := 0; i < s.Shards; i++ {
		var token, epoch, beat uint64
		r.Atomic(self, func(tx tm.Txn) {
			token, epoch, beat = tx.Load(s.kv.word(i, fenceToken)), tx.Load(s.kv.word(i, fenceEpoch)), tx.Load(s.kv.word(i, fenceBeat))
		})
		if token == 0 || n-beat < uint64(s.DeadlineOps) {
			continue
		}
		s.mu.Lock()
		rec := s.recs[token]
		delete(s.recs, token) // claim-once
		s.mu.Unlock()
		switch {
		case rec != nil:
			// Decided batch: roll every participant forward on the dead
			// coordinator's behalf, each under its (token, epoch) guard.
			s.kv.commit(r, self, rec.hold, putOwned(s.kv.place.Load().part, rec.keys, self, rec.val))
			s.rolledFwd.Add(1)
		case token&chaosWedge != 0 && s.kv.guarded(r, self, i, token, epoch, nil):
			s.abortedRec.Add(1)
		default:
			continue
		}
		s.recovered.Add(1)
		s.outstanding.Add(-1)
	}
}

// Metrics implements Metered.
func (s *ServiceChaos) Metrics() map[string]uint64 {
	return map[string]uint64{
		"crashes_injected":     s.crashes.Load(),
		"stalls_injected":      s.stalls.Load(),
		"cross_batches":        s.batches.Load(),
		"cross_committed":      s.committed.Load(),
		"batch_blocked":        s.blocked.Load(),
		"fence_recovered":      s.recovered.Load(),
		"fence_rolled_forward": s.rolledFwd.Load(),
		"fence_aborted":        s.abortedRec.Load(),
		"fenced_skips":         s.fencedSkip.Load(),
	}
}

// Verify implements Verifier: a final recovery sweep (anything still
// orphaned at drain — only possible when the run ends inside a deadline
// window — is recovered regardless of age), then every fence must be
// free, the registry empty, and every key on the shard that owns it.
func (s *ServiceChaos) Verify(h *tm.Heap) error {
	s.detect(NewBareRunner(seqAlg(), h, 1), 0, s.ops.Load()+uint64(s.DeadlineOps))
	s.mu.Lock()
	pending := len(s.recs)
	s.mu.Unlock()
	if pending != 0 {
		return fmt.Errorf("chaos: %d decided batches never recovered", pending)
	}
	if err := s.kv.verify(h); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if got := s.crashes.Load() + s.stalls.Load(); s.recovered.Load() != got {
		return fmt.Errorf("chaos: recovered %d orphans for %d injected faults", s.recovered.Load(), got)
	}
	return nil
}
