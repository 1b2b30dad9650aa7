// Cross-shard commit: the two-phase protocol that keeps multi-key
// operations (mput, mget, range) atomic when their keys live on different
// ProteusTM systems.
//
// Phase 1 (acquire): the coordinator claims an entry in each
// participating shard's fence table with a CAS-with-fence transaction, in
// ascending shard-index order — the global lock order that keeps
// concurrent coordinators deadlock-free. Every acquisition bumps the shard's fence epoch and
// stamps a heartbeat, and the coordinator records the (shard, epoch)
// pairs in the server's commit-state registry (see recovery.go). Any
// acquisition failure aborts the whole attempt: every fence taken so far
// is released ("abort-all on any shard abort") and the coordinator waits
// for the blocking shard's next fence release — at most a capped
// exponential backoff with seeded jitter — and retries.
//
// Phase 2 (apply+release): with every fence held, the coordinator marks
// the batch decided (for writes) and then applies each shard's
// sub-operation and releases that shard's fence in a single transaction,
// so local operations observe the writes and the release atomically.
// Every apply and release is guarded by the recorded (token, epoch) pair:
// if the per-shard failure detector declared this coordinator dead and
// recovered the fence in the meantime, the late transaction observes the
// mismatch and becomes a no-op instead of a corruption — the decided
// flag in the registry is what recovery uses to choose roll-forward
// (writes it finishes on the coordinator's behalf) over abort-release.
//
// Local operations always read the fence inside their own transaction
// and come back unexecuted while it is held — their submitter waits for
// the release and retries — which is what makes the span between the
// first and last apply unobservable: the protocol's linearization point
// sits between the last acquire and the first apply.
//
// Control steps execute under the shard's own worker slots on the
// coordinator's goroutine — waiting in the shard's line, ahead of its data
// operations, when no slot is free — so they obey the same graceful-drain
// protocol as data operations. See docs/sharding.md for the state diagram.
package serve

import (
	"net/http"
	"time"

	proteustm "repro"
	"repro/internal/fault"
	"repro/internal/shard"
)

// Backoff constants of the acquire-phase abort-retry loop: attempt n
// waits at most min(base<<n, cap) scaled by a seeded jitter in [0.5, 1.5),
// so colliding coordinators whose wake-up never came spread out instead of
// re-colliding in lockstep.
const (
	crossBackoffBase = 50 * time.Microsecond
	crossBackoffCap  = 2 * time.Millisecond
)

// crossBackoff returns the capped, jittered exponential backoff of
// abort-retry attempt n.
func (s *Server) crossBackoff(attempt int) time.Duration {
	d := crossBackoffBase
	for i := 0; i < attempt && d < crossBackoffCap; i++ {
		d *= 2
	}
	if d > crossBackoffCap {
		d = crossBackoffCap
	}
	// Seeded jitter: deterministic splitmix64 stream over Options.Seed.
	x := s.jitterState.Add(0x9E3779B97F4A7C15)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	frac := float64((x^(x>>31))>>11) / float64(1<<53) // [0, 1)
	return d/2 + time.Duration(float64(d)*frac)
}

// crossWait parks an aborted coordinator until shard ss — whose fence
// refused it, at release generation gen — releases a fence, or attempt's
// backoff elapses; the measured wait is surfaced as ops.cross_backoff_ms.
func (s *Server) crossWait(ss *shardState, gen uint64, attempt int) (timedOut bool) {
	d, timedOut := ss.awaitRelease(gen, s.crossBackoff(attempt))
	s.crossBackoffNs.Add(uint64(d))
	return timedOut
}

// submitCross admits one multi-key operation. The participant set is
// computed from one atomically-loaded (placement, epoch) pair, and the
// epoch rides along: if a live reshard flips the placement before the
// operation executes, the shard (fast path) or the post-acquire epoch
// re-check (protocol path) bounces it back here to recompute under the
// current placement. Single-participant operations take the fast path:
// one ordinary admission-queue request on the owning shard, atomic by
// construction. Everything else runs the two-phase commit protocol
// above.
func (s *Server) submitCross(req *request) (response, int) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.closed.Load() {
		return response{Err: "server shutting down"}, http.StatusServiceUnavailable
	}
	for try := 0; ; try++ {
		part, epoch := s.place.Load()
		req.routingEpoch = epoch
		// owners: the owning shard of every key of a batch — one Owner call
		// per key, grouped into parts only if the batch turns out to span
		// shards — or the participants of a scan.
		var buf [inlineKeys]int
		owners := buf[:0]
		if req.op == opRange {
			// Fence only the shards whose key spans intersect the scan. The
			// partitioner's owner set is exact for the range partitioner and
			// for narrow hashed scans, conservative (every shard) for wide
			// hashed ones — never fewer than the shards that could hold a key
			// in [lo, hi], which is what keeps the snapshot atomic.
			owners = part.OwnersInRange(req.lo, req.hi)
			if part.Kind() == shard.KindHash && part.Shards() > 1 && req.hi-req.lo >= shard.RangeEnumCap {
				// The hash partitioner gave up enumerating: the owner set is
				// the conservative all-shards fallback, and this scan fences
				// the entire fleet. Counted so the over-fencing is visible
				// (ops.range_conservative in /statusz).
				s.rangeConservative.Add(1)
			}
			if len(owners) == 1 {
				s.rangeLocal.Add(1)
			} else {
				s.rangeCross.Add(1)
				s.rangeFencedShards.Add(uint64(len(owners)))
			}
		} else {
			for _, k := range req.keys {
				owners = append(owners, part.Owner(k))
			}
		}
		single := len(owners) > 0
		for _, o := range owners {
			single = single && o == owners[0]
		}
		var resp response
		var code int
		var flipped bool
		if fleet := s.fleet(); single && owners[0] < len(fleet) {
			// Fast path: the whole operation lives on one shard; the shard's
			// own transaction makes it atomic, and the fence check inside
			// execute keeps it ordered against concurrent cross-shard commits.
			resp, code = s.submit(fleet[owners[0]], req)
			flipped = resp.moved
		} else if single {
			// The single owner was merged away between the placement and
			// fleet loads: re-route under the fresh placement.
			flipped = true
		} else {
			resp, code, flipped = s.crossProtocol(req, owners, epoch)
		}
		if !flipped {
			return resp, code
		}
		if try >= movedRetries {
			return response{Err: "placement moved during retries"}, http.StatusServiceUnavailable
		}
		s.movedBounces.Add(1)
	}
}

// crossProtocol runs the two-phase commit over the shards in owners (see
// crossReg.register), which were computed under the placement of
// routedEpoch. It reports flipped=true —
// with every fence released and nothing applied — when a live reshard
// installed a newer placement after the fences were acquired: the
// participant set may be stale, and the caller recomputes it. The check
// sits with every fence held, and any migration that moves this batch's
// keys must first take their current owner's fence (a participant's), so
// a batch that passes the check cannot lose a key to a flip before it
// applies.
func (s *Server) crossProtocol(req *request, owners []int, routedEpoch uint64) (response, int, bool) {
	// A sick participant fails the whole batch before any fence is
	// taken: shed to the breaker's Retry-After instead of letting the
	// protocol discover the stall the slow way. A participant the fleet
	// no longer holds was merged away after the batch was computed —
	// bounce for re-routing instead of indexing past the truncation.
	for _, o := range owners {
		fleet := s.fleet()
		if o >= len(fleet) {
			return response{}, 0, true
		}
		if ra := fleet[o].breakerRetryAfter(); ra > 0 {
			s.breakerShed.Add(1)
			return response{Err: "participant shard circuit breaker open",
					code: http.StatusServiceUnavailable, retryAfter: ra},
				http.StatusServiceUnavailable, false
		}
	}

	s.armDeadline(req)
	accepted := req.accepted
	// Coordinator slots are bounded admission, same contract as the data
	// queues: overflow rejects immediately (429), never stalls a handler.
	select {
	case s.crossSem <- struct{}{}:
	default:
		s.rejected.Add(1)
		return response{Err: "cross-shard coordinator slots full"}, http.StatusTooManyRequests, false
	}
	defer func() { <-s.crossSem }()
	token := s.nextToken.Add(1)
	rec := s.reg.register(token, req, owners)
	abandoned := false
	defer func() {
		if !abandoned {
			s.reg.remove(token)
		}
	}()

	// spent counts the attempts charged to the CrossRetries budget: those
	// whose wait ran into its bound (see the abort-all arm below). tries
	// counts them all, under the same safety valve as a fenced operation's.
	for spent, tries := 0, 0; spent < s.opts.CrossRetries && tries < maxFenceTries; tries++ {
		// Deadline/cancellation gate, checked only between attempts: a
		// coordinator never abandons a protocol round mid-flight (that
		// would strand fences), but an expired or client-abandoned batch
		// is dropped before it claims any fence.
		if req.expired() {
			s.shedDeadline.Add(1)
			return response{Err: "deadline exceeded", code: http.StatusGatewayTimeout}, http.StatusGatewayTimeout, false
		}
		// A placement flip while we were backing off (a merge retiring a
		// participant, say) means the batch may be stale: bounce it back
		// for recomputation instead of spending the retry budget on a
		// retired shard's not-applied answers.
		if s.place.Epoch() != routedEpoch {
			s.releaseParts(rec)
			return response{}, 0, true
		}
		// blocker is the shard whose fence refused this attempt, blockGen
		// its release generation read before the refused acquire.
		var blocker *shardState
		var blockGen uint64
		for i := range rec.parts {
			p := &rec.parts[i]
			// Injected coordinator stall between acquisitions: the
			// coordinator sits on already-claimed fences, indistinguishable
			// from a dead one — the window the epoch guards exist for.
			if d, fire := s.opts.Fault.Fire(fault.FenceAcquireStall, -1); fire {
				time.Sleep(d)
			}
			fleet := s.fleet()
			if p.shard >= len(fleet) {
				// Participant merged away mid-protocol: recompute the batch.
				s.releaseParts(rec)
				return response{}, 0, true
			}
			if req.op == opMPut && !fleet[p.shard].store.kv.Room(len(p.idx)) {
				// Refuse the batch while nothing is decided rather than let
				// phase 2 fail on this shard with other parts applied. Best
				// effort: a local put that allocates before the fence lands
				// can still take the room, and the apply then answers 507
				// with the batch applied in part.
				s.releaseParts(rec)
				return heapFull, heapFull.code, false
			}
			gen := fleet[p.shard].relGen.Load()
			r := s.runCtl(fleet[p.shard], acquireStep(&rec.ctlReq, token, partSig(req, p)))
			if r.Err != "" {
				s.releaseParts(rec)
				return r, http.StatusServiceUnavailable, false
			}
			if !r.Applied {
				blocker, blockGen = fleet[p.shard], gen
				break
			}
			rec.acquired(p, r.hold)
		}
		if blocker != nil {
			// Abort-all: another coordinator (or an unlucky interleaving)
			// holds a fence we need. Release everything, wait for the
			// blocking shard to release, retry. The budget was sized in waits
			// of the backoff schedule (64 of them are tens of milliseconds):
			// a wait cut short by a release — possibly of a fence that still
			// was not the one this batch needs — took microseconds, so it
			// neither spends the budget nor lengthens the next wait.
			s.releaseParts(rec)
			s.crossAborts.Add(1)
			if spent+1 >= s.opts.CrossRetries || s.crossWait(blocker, blockGen, spent) {
				spent++
			}
			continue
		}
		// Placement re-check, with every fence held: a reshard that moves
		// any of this batch's keys must first take their current owner's
		// fence — one of ours — so an epoch still equal to the routing
		// epoch proves the participant set is current, and a newer epoch
		// sends the batch back to be recomputed before anything applies.
		if s.place.Epoch() != routedEpoch {
			s.releaseParts(rec)
			return response{}, 0, true
		}
		// Prepared: every fence held. Writes record their decision now —
		// from here recovery rolls the batch forward instead of aborting.
		// A failed decide means the detector claimed this batch for abort
		// while we were stalled mid-acquire: nothing may be applied.
		if req.op == opMPut && !rec.decide() {
			resp := s.superseded(rec)
			return resp, resp.code, false
		}
		if _, fire := s.opts.Fault.Fire(fault.CoordCrash, -1); fire {
			// Injected coordinator crash between prepare and apply: the
			// registry record stays behind for the failure detector, the
			// fences stay held until it recovers them, and the client is
			// told when to retry.
			abandoned = true
			rec.abandon()
			s.crossCrashes.Add(1)
			return response{Err: "cross-shard coordinator crashed (injected fault); fence recovery pending",
					code: http.StatusServiceUnavailable, retryAfter: s.fenceRecoveryEta()},
				http.StatusServiceUnavailable, false
		}
		resp := s.applyAll(rec, req)
		if resp.Err != "" {
			code := http.StatusServiceUnavailable
			if resp.code != 0 {
				code = resp.code
			}
			return resp, code, false
		}
		s.crossOps.Add(1)
		s.served[req.op].Add(1)
		s.lat.Observe(msBetween(accepted, time.Now()))
		return resp, http.StatusOK, false
	}
	// Exhausting the retry budget on a sharded server almost always means
	// the batch kept colliding with an orphaned fence (the capped backoff
	// schedule is far shorter than a recovery window), so tell the client
	// when the failure detector will have healed it rather than reporting
	// a dead-end error.
	return response{Err: "cross-shard commit: fence contention exhausted retries",
			code: http.StatusServiceUnavailable, retryAfter: s.fenceRecoveryEta()},
		http.StatusServiceUnavailable, false
}

// ctl runs step as one control-step transaction on shard ss, on the
// caller's goroutine, and returns its result. Control steps skip the
// closed-check on purpose: Close waits for in-flight coordinators
// (registered in inflight) before stopping the shards, so a coordinator
// must be able to finish its protocol — fence releases included — after
// shutdown begins.
func (s *Server) ctl(ss *shardState, step func(tx proteustm.Txn, slot int) response) response {
	return s.runCtl(ss, &request{ctl: true, step: step})
}

// guarded is ctl for a step that is a no-op unless hold h is still current
// on ss, and that frees h in the same transaction when release is set; the
// response's Applied reports whether h was current.
func (s *Server) guarded(ss *shardState, h FenceHold, release bool, step func(tx proteustm.Txn, slot int) response) response {
	return s.runCtl(ss, &request{ctl: true, hold: h, releases: release, step: step})
}

// runCtl runs control step req on shard ss. A stopped shard answers with
// stopAnswer: a retiring one not-applied (the coordinator re-routes off the
// flipped epoch); only real shutdown is an error.
func (s *Server) runCtl(ss *shardState, req *request) response {
	resp, _ := ss.run(req, nil)
	return resp
}

// partSig is the signature part p of req publishes in its shard's fence
// table: the union of the part's keys' signature bits, or the whole shard
// for a range scan, whose covered key set cannot be enumerated.
func partSig(req *request, p *crossPart) uint64 {
	if req.op == opRange {
		return SigAll
	}
	var sig uint64
	for _, i := range p.idx {
		sig |= keyBit(req.keys[i])
	}
	return sig
}

// acquireStep makes req the CAS-with-fence acquisition of a fence entry
// for token, publishing sig and stamping the heartbeat with the caller's
// current wall clock; the step's response carries the claimed hold.
func acquireStep(req *request, token, sig uint64) *request {
	*req = request{ctl: true, kind: stepAcquire, key: token, val: uint64(time.Now().UnixNano()), lo: sig}
	return req
}

// ctlAcquire runs one acquisition (see acquireStep) on shard ss.
func (s *Server) ctlAcquire(ss *shardState, token, sig uint64) response {
	return s.runCtl(ss, acquireStep(new(request), token, sig))
}

// releaseParts frees the fences of every acquired-but-unreleased part of
// rec (the abort path; the commit path releases inside applyAll's
// per-shard transactions). Part state is reset so the next acquire
// attempt starts clean.
func (s *Server) releaseParts(rec *crossRec) {
	for i := range rec.parts {
		p := &rec.parts[i]
		h, held := rec.held(p)
		if !held {
			continue
		}
		// A fenced shard cannot retire (the merge migrator needs the same
		// fence), so a held part is always in the fleet — but never index
		// past a truncation.
		if fleet := s.fleet(); p.shard < len(fleet) {
			rec.ctlReq = request{ctl: true, hold: h, releases: true}
			s.runCtl(fleet[p.shard], &rec.ctlReq)
		}
	}
	rec.resetParts()
}

// superseded is the phase-2 outcome when a guarded apply observed a
// foreign (token, epoch): the failure detector declared this coordinator
// dead mid-protocol and recovered its fences. Reads cannot be salvaged
// (their snapshot is torn); writes land here only when recovery aborted
// an undecided batch, so nothing was applied anywhere and a retry is
// safe either way.
func (s *Server) superseded(rec *crossRec) response {
	s.releaseParts(rec)
	return response{Err: "cross-shard commit superseded by fence recovery; retry",
		code: http.StatusServiceUnavailable, retryAfter: s.fenceRecoveryEta()}
}

// applyAll runs phase 2: each shard applies its slice of the operation
// and releases its fence in one guarded transaction. With every fence
// held no local operation can observe the store between two shards'
// applies, so the batch is atomic even though the applies run one shard at
// a time. A part the failure detector already rolled forward (a
// slow-but-alive coordinator racing recovery) is skipped: its writes are
// in and its fence is released, which is exactly what this loop would have
// done. Any other part found released or superseded means recovery aborted
// the batch out from under a stalled coordinator: nothing was applied on
// that shard, and the batch fails whole.
func (s *Server) applyAll(rec *crossRec, req *request) response {
	out := response{Applied: req.op == opMPut}
	if req.op == opMGet {
		out.Vals = make([]uint64, len(req.keys))
		out.Present = make([]bool, len(req.keys))
		rec.got, rec.present = out.Vals, out.Present
	}
	for i := range rec.parts {
		p := &rec.parts[i]
		if rec.rolledForward(p) {
			continue
		}
		h, held := rec.held(p)
		fleet := s.fleet()
		if !held || p.shard >= len(fleet) { // the latter defensive: fenced shards never retire
			return s.superseded(rec)
		}
		rec.ctlReq = request{ctl: true, kind: stepApply, part: p, hold: h, releases: true}
		r := s.runCtl(fleet[p.shard], &rec.ctlReq)
		if r.Err != "" {
			// A full heap, or a shard that stopped. Even then the coordinator
			// must not strand fences: the remaining ones are released before
			// the error propagates.
			s.releaseParts(rec)
			return r
		}
		if !r.Applied {
			return s.superseded(rec)
		}
		rec.markReleased(p, false)
		out.Count += r.Count
		out.Sum += r.Sum
	}
	return out
}

// apply is the transaction body of part p's phase 2 on its shard's store:
// its slice of the batch's writes, reads (into the coordinator's result
// buffers) or scan.
func (p *crossPart) apply(tx proteustm.Txn, slot int, st *Store) (r response) {
	rec := p.rec
	switch rec.op {
	case opMPut:
		for _, i := range p.idx {
			st.Put(tx, slot, rec.keys[i], rec.vals[i])
		}
	case opMGet:
		for _, i := range p.idx {
			rec.got[i], rec.present[i] = st.Get(tx, rec.keys[i])
		}
	case opRange:
		r.Count, r.Sum = st.Range(tx, rec.lo, rec.hi)
	}
	return r
}
