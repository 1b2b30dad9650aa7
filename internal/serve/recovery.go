// Self-healing for the cross-shard commit protocol: the commit-state
// registry (the coordinator's write-ahead decision record), the per-shard
// failure detector that scavenges orphaned fences, and the per-shard
// circuit breaker that sheds load away from a shard that has stopped
// making progress.
//
// The registry is the recovery oracle. Every cross-shard coordinator
// registers its batch — token, operation, keys/values, and the (shard,
// epoch) of each fence as it is acquired — and marks the batch *decided*
// once every fence is held (writes only; reads are never decided). When a
// shard's detector finds a fence held past the deadline, it looks the
// token up: a decided batch is rolled forward (the writes are applied on
// the dead coordinator's behalf, then the fence released), anything else
// is aborted (fences released, nothing applied). Both paths run under the
// fence's (token, epoch) guard, so recovery racing a slow-but-alive
// coordinator is safe in both directions: whichever transaction commits
// second observes the mismatch and becomes a no-op. The decide/claim
// handshake is serialized by the record's mutex, so recovery and a slow
// coordinator can never split a batch between roll-forward and abort.
package serve

import (
	"net/http"
	"slices"
	"sync"
	"time"
)

// crossPart is one shard's slice of a registered cross-shard batch.
type crossPart struct {
	rec   *crossRec
	shard int
	idx   []int // positions into the batch's keys/vals owned by this shard
	// hold is the fence hold this batch has on the shard (valid while
	// acquired); released marks the fence freed (by the coordinator's
	// apply/abort or — byRecovery — by the detector). Guarded by rec.mu.
	hold       FenceHold
	acquired   bool
	released   bool
	byRecovery bool
}

// Batches up to these sizes live inside their crossRec, which is then the
// one allocation a cross-shard commit's bookkeeping makes; larger ones
// spill to slices.
const (
	inlineParts = 4
	inlineKeys  = 16
)

// crossRec is the registry record of one in-flight cross-shard batch —
// everything recovery needs to finish or undo it without its coordinator.
type crossRec struct {
	token      uint64
	op         opKind
	keys, vals []uint64
	lo, hi     uint64 // the scanned interval of an opRange batch
	parts      []crossPart

	// got and present receive an mget's per-key results from its parts'
	// applies; ctlReq is the one request every control step of the coordinator
	// reuses (it runs them one at a time and waits for each). Coordinator
	// only: recovery never touches them.
	got     []uint64
	present []bool
	ctlReq  request

	// mu guards every part's acquisition state and the four flags below —
	// the state the coordinator and the failure detectors share. decide and
	// claim both take it, which is what serializes the decide/claim
	// handshake.
	mu sync.Mutex
	// decided flips once every fence is held (writes only): from here
	// the batch must commit, so recovery rolls it forward. abandoned
	// marks a coordinator crash (fault injection): the record is owned
	// by recovery and removed when the last fence is released.
	decided   bool
	abandoned bool
	// recovering serializes detectors (one recovery per batch at a
	// time); counted makes the recovered-batch accounting idempotent.
	recovering bool
	counted    bool

	partsBuf [inlineParts]crossPart
	idxBuf   [inlineKeys]int
}

// crossReg is the server-wide commit-state registry: the token → record
// map. Its mutex guards the map alone; a record's state is under the
// record's own (crossRec.mu).
type crossReg struct {
	mu   sync.Mutex
	recs map[uint64]*crossRec
}

func newCrossReg() *crossReg { return &crossReg{recs: make(map[uint64]*crossRec)} }

// register records a new batch before its first acquisition. owners are
// the owning shards of req.keys, key by key — or, for a range scan, the
// shards its interval maps onto, ascending. Parts come out in ascending
// shard order, the fence-acquisition order.
func (g *crossReg) register(token uint64, req *request, owners []int) *crossRec {
	rec := &crossRec{token: token, op: req.op, keys: req.keys, vals: req.vals, lo: req.lo, hi: req.hi}
	rec.parts = rec.partsBuf[:0]
	if req.op == opRange {
		for _, o := range owners {
			rec.parts = append(rec.parts, crossPart{shard: o})
		}
	} else {
		rec.splitKeys(owners)
	}
	for i := range rec.parts {
		rec.parts[i].rec = rec
	}
	g.mu.Lock()
	g.recs[token] = rec
	g.mu.Unlock()
	return rec
}

// splitKeys groups the batch's key positions by owning shard: one part per
// distinct owner, ascending, each with the positions it owns in batch
// order, carved out of one backing array.
func (rec *crossRec) splitKeys(owners []int) {
	// Distinct owners, ascending (insertion sort: there are few shards).
	for _, o := range owners {
		at := 0
		for at < len(rec.parts) && rec.parts[at].shard < o {
			at++
		}
		if at == len(rec.parts) || rec.parts[at].shard != o {
			rec.parts = slices.Insert(rec.parts, at, crossPart{shard: o})
		}
	}
	all := rec.idxBuf[:0]
	if len(owners) > cap(all) {
		all = make([]int, 0, len(owners))
	}
	for i := range rec.parts {
		p := &rec.parts[i]
		start := len(all)
		for pos, o := range owners {
			if o == p.shard {
				all = append(all, pos)
			}
		}
		p.idx = all[start:len(all):len(all)]
	}
}

// remove drops a completed (non-abandoned) batch.
func (g *crossReg) remove(token uint64) {
	g.mu.Lock()
	delete(g.recs, token)
	g.mu.Unlock()
}

// acquired records that part p holds its shard's fence as h.
func (rec *crossRec) acquired(p *crossPart, h FenceHold) {
	rec.mu.Lock()
	p.hold, p.acquired, p.released, p.byRecovery = h, true, false, false
	rec.mu.Unlock()
}

// held reports the hold part p currently has on its shard's fence, if it
// has one.
func (rec *crossRec) held(p *crossPart) (h FenceHold, held bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return p.hold, p.acquired && !p.released
}

// resetParts clears acquisition state after an abort-all, so the next
// attempt starts clean.
func (rec *crossRec) resetParts() {
	rec.mu.Lock()
	for i := range rec.parts {
		p := &rec.parts[i]
		p.hold, p.acquired, p.released, p.byRecovery = FenceHold{}, false, false, false
	}
	rec.mu.Unlock()
}

// decide marks a fully-prepared write batch as committed — unless the
// failure detector has already claimed the record for abort (it found
// the batch undecided when it claimed), in which case the coordinator
// must not apply anything: the claim/decide order is what guarantees
// recovery and coordinator agree on commit-vs-abort. Deciding also
// re-validates that every part still holds its fence: a coordinator
// that stalled mid-acquire and whose undecided batch recovery aborted
// (fences released, recovery long unclaimed) would otherwise resume,
// acquire the remaining fences and commit a batch that is already
// part-released — a torn write.
func (rec *crossRec) decide() bool {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.recovering && !rec.decided {
		return false
	}
	for i := range rec.parts {
		if p := &rec.parts[i]; !p.acquired || p.released {
			return false
		}
	}
	rec.decided = true
	return true
}

// abandon hands the record to recovery (injected coordinator crash).
func (rec *crossRec) abandon() {
	rec.mu.Lock()
	rec.abandoned = true
	rec.mu.Unlock()
}

// markReleased records that part p's fence was freed.
func (rec *crossRec) markReleased(p *crossPart, byRecovery bool) {
	rec.mu.Lock()
	p.released, p.byRecovery = true, byRecovery
	rec.mu.Unlock()
}

// rolledForward reports whether part p's fence was freed by a recovery
// that rolled the decided batch forward — the only kind of release a
// committing coordinator may treat as already-applied. A release that is
// not a decided roll-forward (recovery aborted the batch while the
// coordinator was stalled) means nothing of this part was written and the
// whole batch must fail.
func (rec *crossRec) rolledForward(p *crossPart) bool {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return p.released && p.byRecovery && rec.decided
}

// claim hands token's record to one recovering detector. rollForward is
// the decision frozen at claim time: a decided batch commits (recovery
// applies its writes), anything else aborts. Returns (nil, false, true)
// when another detector already owns the recovery and (nil, false,
// false) for tokens the registry has never seen.
func (g *crossReg) claim(token uint64) (rec *crossRec, rollForward, known bool) {
	g.mu.Lock()
	r, ok := g.recs[token]
	g.mu.Unlock()
	if !ok {
		return nil, false, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recovering {
		return nil, false, true
	}
	r.recovering = true
	return r, r.decided, true
}

// unclaim releases a detector's claim (recovery complete or retrying
// next tick).
func (rec *crossRec) unclaim() {
	rec.mu.Lock()
	rec.recovering = false
	rec.mu.Unlock()
}

// completeIfDone checks whether every acquired part of rec has been
// released; if so it removes abandoned records (their coordinator is
// gone) and reports whether this call is the first to observe
// completion — the once-per-batch accounting edge.
func (g *crossReg) completeIfDone(rec *crossRec) bool {
	rec.mu.Lock()
	for i := range rec.parts {
		if p := &rec.parts[i]; p.acquired && !p.released {
			rec.mu.Unlock()
			return false
		}
	}
	first, abandoned := !rec.counted, rec.abandoned
	rec.counted = true
	rec.mu.Unlock()
	if first && abandoned {
		g.remove(rec.token)
	}
	return first
}

// ---- per-shard failure detector + circuit breaker ----

// Circuit-breaker states. The breaker is driven by the detector's
// progress watchdog, not by response codes: a shard is sick when it has
// queued work but executes nothing across BreakerStallTicks consecutive
// detector ticks — a stalled worker pool or a wedged fence — and healthy
// again the moment an operation completes.
const (
	breakerClosed int32 = iota
	breakerOpen
)

// breakerRetryAfter returns how long a new admission should stay away,
// or 0 when the shard accepts work. Past the cooldown an open breaker
// admits probes (half-open); the detector closes it on progress or
// re-arms the cooldown if the stall persists.
func (ss *shardState) breakerRetryAfter() time.Duration {
	if ss.breakerState.Load() != breakerOpen {
		return 0
	}
	if d := time.Duration(ss.breakerUntil.Load() - time.Now().UnixNano()); d > 0 {
		return d
	}
	return 0
}

// breakerName renders the breaker state for /statusz and /healthz.
func (ss *shardState) breakerName(now time.Time) string {
	if ss.breakerState.Load() != breakerOpen {
		return "closed"
	}
	if ss.breakerUntil.Load() > now.UnixNano() {
		return "open"
	}
	return "half-open"
}

// extendStall pushes the shard's injected-stall horizon (fault.ShardStall).
func (ss *shardState) extendStall(until time.Time) {
	n := until.UnixNano()
	for {
		cur := ss.stallUntil.Load()
		if n <= cur || ss.stallUntil.CompareAndSwap(cur, n) {
			return
		}
	}
}

// sleepInjectedStall parks the slot's holder until the stall horizon
// passes.
func (ss *shardState) sleepInjectedStall() {
	until := ss.stallUntil.Load()
	if until == 0 {
		return
	}
	if rem := time.Until(time.Unix(0, until)); rem > 0 {
		time.Sleep(rem)
	}
}

// beatStale reports whether a fence heartbeat is older than the
// deadline. A zero or future beat (a fence wedged by something outside
// the protocol) is treated as stale — the continuity requirement in the
// detector (same token+epoch observed across the whole deadline) is
// what keeps short-lived holds safe from it.
func beatStale(beat uint64, now time.Time, deadline time.Duration) bool {
	n := now.UnixNano()
	if beat == 0 || beat > uint64(n) {
		return true
	}
	return time.Duration(uint64(n)-beat) >= deadline
}

// fenceSus is one suspicion cell of the detector: the (token, epoch)
// last observed on a fence table entry, and since when.
type fenceSus struct {
	token, epoch uint64
	since        time.Time
}

// watch advances one suspicion cell against a freshly-observed hold and
// reports whether the hold is ripe for recovery: same (token, epoch)
// across the whole deadline and a stale heartbeat.
func (f *fenceSus) watch(token, epoch, beat uint64, now time.Time, deadline time.Duration) bool {
	if token == 0 {
		f.token, f.epoch = 0, 0
		return false
	}
	if token != f.token || epoch != f.epoch {
		f.token, f.epoch, f.since = token, epoch, now
		return false
	}
	if now.Sub(f.since) >= deadline && beatStale(beat, now, deadline) {
		f.token, f.epoch = 0, 0
		return true
	}
	return false
}

// detector is shard ss's failure detector: a scavenger goroutine that
// (a) recovers fences held past Options.FenceDeadline — the hold must be
// the same (token, epoch) across the whole deadline AND carry a stale
// heartbeat, so a busy protocol reacquiring the fence never trips it —
// and (b) trips the circuit breaker when the shard has queued work but
// made no progress for BreakerStallTicks consecutive ticks. The scavenger
// iterates the fence table, one suspicion cell per entry, so each
// orphaned hold is recovered independently.
func (ss *shardState) detector() {
	defer ss.wg.Done()
	s := ss.srv
	deadline, cooldown := s.opts.FenceDeadline, s.opts.BreakerCooldown
	tick := time.NewTicker(s.opts.DetectInterval)
	defer tick.Stop()
	var sus [FenceSlots]fenceSus
	lastExecuted := ss.executed.Load()
	stallTicks := 0
	for {
		select {
		case <-ss.stop:
			return
		case <-tick.C:
		}
		now := time.Now()

		// Orphaned-fence scavenging. With nothing held the cells keep what
		// they last saw: epochs never repeat, so a stale cell cannot match
		// a later hold.
		if ss.sys.Load(ss.store.FenceOccWord()) != 0 {
			for i := range sus {
				tokenW, epochW, beatW := ss.store.FenceSlotWordsOf(i)
				h := FenceHold{Slot: i, Token: ss.sys.Load(tokenW)}
				var beat uint64
				if h.Token != 0 {
					h.Epoch = ss.sys.Load(epochW)
					beat = ss.sys.Load(beatW)
				}
				if sus[i].watch(h.Token, h.Epoch, beat, now, deadline) {
					s.recoverOrphan(ss, h)
				}
			}
		}

		// Progress watchdog → circuit breaker.
		executed := ss.executed.Load()
		progressed := executed != lastExecuted
		lastExecuted = executed
		if progressed || len(ss.queue) == 0 {
			stallTicks = 0
			if ss.breakerState.CompareAndSwap(breakerOpen, breakerClosed) {
				s.opts.Logf("serve: shard %d circuit breaker closed (progress resumed)", ss.idx)
			}
		} else if stallTicks++; stallTicks >= s.opts.BreakerStallTicks {
			ss.breakerUntil.Store(now.Add(cooldown).UnixNano())
			if ss.breakerState.CompareAndSwap(breakerClosed, breakerOpen) {
				s.breakerOpenTotal.Add(1)
				s.opts.Logf("serve: shard %d circuit breaker open (no progress for %d ticks, queue=%d)",
					ss.idx, stallTicks, len(ss.queue))
			}
		}
	}
}

// ctlRecover runs one recovery control step on shard target on behalf of
// shard own's detector, waiting for the result but never past either
// shard's shutdown: a detector must not deadlock Close. A step that times
// out this way may still execute on a worker later; all its effects are
// epoch-guarded and it books its own completion (request.then), so
// the detector simply retries on the next tick.
func (s *Server) ctlRecover(own, target *shardState, req *request) (response, bool) {
	if resp, ok := target.run(req, false); ok {
		return resp, true
	}
	req.done = make(chan response, 1)
	select {
	case target.prio <- req:
	case <-target.stop:
		return response{}, false
	case <-own.stop:
		return response{}, false
	}
	select {
	case resp := <-req.done:
		return resp, true
	case <-target.stop:
		return response{}, false
	case <-own.stop:
		return response{}, false
	}
}

// fenceRecoveryEta is the Retry-After hint handed to clients whose batch
// needs fence recovery: one detection deadline plus one detector tick.
func (s *Server) fenceRecoveryEta() time.Duration {
	if s.opts.FenceDeadline <= 0 {
		return time.Second
	}
	return s.opts.FenceDeadline + s.opts.DetectInterval
}

// recoverOrphan recovers the batch holding h on shard ss's fence past the
// deadline. A registered batch is recovered whole — decided writes roll
// forward (applied on the dead coordinator's behalf), everything else
// aborts — across all its shards, so one detector firing heals every
// participant. A token the registry has never seen is a span move's (or a
// fence wedged from outside the protocol): its partial copy is rolled back
// and the hold released.
func (s *Server) recoverOrphan(ss *shardState, h FenceHold) {
	rec, rollForward, known := s.reg.claim(h.Token)
	if rec == nil {
		if known {
			return // another shard's detector owns this batch's recovery
		}
		// If a span move was live under this token, delete its partial copy
		// from the recipient FIRST — releasing the donor's fence before the
		// rollback would let a scan double-count the copied duplicates. A
		// rollback that cannot finish leaves the fence held; this detector
		// fires again next tick.
		if !s.rollbackMove(h.Token) {
			return
		}
		if r, ok := s.ctlRecover(ss, ss, &request{ctl: true, hold: h, releases: true}); ok && r.Applied {
			s.fenceRecovered.Add(1)
			s.fenceAborted.Add(1)
			s.opts.Logf("serve: shard %d fence recovery: released unregistered token %d (epoch %d)", ss.idx, h.Token, h.Epoch)
		}
		return
	}
	defer rec.unclaim()
	for i := range rec.parts {
		p := &rec.parts[i]
		ph, held := rec.held(p)
		if !held {
			continue
		}
		fleet := s.fleet()
		if p.shard >= len(fleet) {
			// The participant was merged away (its fence died with it);
			// mark it handled so the batch's recovery can complete.
			rec.markReleased(p, true)
			continue
		}
		// Only a decided batch rolls forward, and only writes are decided, so
		// the apply below never reaches the coordinator's read buffers.
		req := &request{ctl: true, hold: ph, releases: true,
			then: func() { rec.markReleased(p, true) }}
		if rollForward {
			req.kind, req.part = stepApply, p
		}
		s.ctlRecover(ss, fleet[p.shard], req)
	}
	if s.reg.completeIfDone(rec) {
		s.fenceRecovered.Add(1)
		action := "aborted"
		if rollForward {
			s.fenceRolledForward.Add(1)
			action = "rolled forward"
		} else {
			s.fenceAborted.Add(1)
		}
		s.opts.Logf("serve: shard %d fence recovery: %s batch token %d across %d shard(s)",
			ss.idx, action, h.Token, len(rec.parts))
	}
}

// ---- /healthz ----

// ShardHealth is one shard's slice of the /healthz readiness document.
type ShardHealth struct {
	Index   int    `json:"index"`
	Breaker string `json:"breaker"`
	// FenceHeld reports a currently-held commit fence; FenceStale marks
	// one held past the detection deadline (recovery due or in flight).
	FenceHeld  bool `json:"fence_held"`
	FenceStale bool `json:"fence_stale,omitempty"`
}

// HealthStatus is the /healthz document: Healthy (HTTP 200) only when
// every shard's circuit breaker is closed and no fence has been held
// past its deadline — the readiness condition for putting the instance
// behind a load balancer.
type HealthStatus struct {
	Healthy bool          `json:"healthy"`
	Shards  []ShardHealth `json:"shards"`
}

// Health evaluates the readiness condition.
func (s *Server) Health() HealthStatus {
	now := time.Now()
	deadline := s.opts.FenceDeadline
	if deadline <= 0 {
		deadline = time.Second
	}
	h := HealthStatus{Healthy: true, Shards: make([]ShardHealth, len(s.fleet()))}
	for i, ss := range s.fleet() {
		sh := ShardHealth{Index: i, Breaker: ss.breakerName(now)}
		if sh.Breaker == "open" {
			h.Healthy = false
		}
		if ss.sys.Load(ss.store.FenceOccWord()) != 0 {
			for slot := 0; slot < FenceSlots; slot++ {
				tokenW, _, beatW := ss.store.FenceSlotWordsOf(slot)
				if ss.sys.Load(tokenW) == 0 {
					continue
				}
				sh.FenceHeld = true
				if beatStale(ss.sys.Load(beatW), now, deadline) {
					sh.FenceStale = true
					h.Healthy = false
				}
			}
		}
		h.Shards[i] = sh
	}
	return h
}

// handleHealthz serves the readiness probe: 200 when healthy, 503 with
// the same document otherwise (distinct from /statusz, which always
// answers 200 — liveness and introspection belong there).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if !h.Healthy {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
