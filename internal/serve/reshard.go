// Live resharding: installing a shard.MovePlan under load.
//
// The migration is a fenced protocol step, not a redeploy:
//
//	plan   — PlanSplitHeaviest over the live ops_routed counters picks the
//	         donor shard and the key span to move (clamped around the
//	         deque-reserved window).
//	fence  — the migrator claims the donor's fence with the same
//	         CAS-with-fence step a cross-shard commit uses, under a
//	         conflict-with-everything key signature, so every local
//	         operation and every competing coordinator serializes against
//	         the move.
//	copy   — the moved span streams donor → recipient in bounded range
//	         transactions, each guarded by the fence hold and re-stamping
//	         the holder heartbeat.
//	flip   — the grown fleet is already published, the span installed, so
//	         the placement swaps atomically (shard.Epoched) under the next
//	         epoch; every router loads the pair per-operation.
//	release — still fenced, the donor bumps its placement-epoch word
//	         (stale-routed operations start bouncing for re-routing the
//	         instant the fence drops), deletes the moved span in bounded
//	         batches, and releases.
//
// Crash model: a migrator that dies mid-copy or after install-but-
// before-flip leaves the donor's fence held with an unregistered token and
// the move's record in place; the failure detector's orphan recovery
// deletes the partial copy from the recipient and only then releases the
// fence (rollback — the placement never flipped, so the donor still serves
// the whole span). See docs/sharding.md for the crash matrix.
//
// A split and a merge are the same move (moveSpan) between different
// ends: a split's recipient is a new shard the prologue grows the fleet by
// and its placement grows by one; a merge's recipient is a live shard
// serving its own keys throughout and its placement shrinks by one. The
// epilogue is shared: whatever the fleet's top shard is — a split's
// recipient, a merge's donor — it is drained and retired for good once the
// step is over and the placement does not name it, so a split that never
// flipped leaves no shard behind and the fleet is again exactly the
// placement's width. Because a recipient may be live, copied duplicates
// must never become observable — a scan spanning the boundary would
// double-count them — which is why the rollback precedes the release.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	proteustm "repro"
	"repro/internal/fault"
	"repro/internal/shard"
)

// dequeHome is the shard the deque lives on. The deque is not
// partitioned and never migrates.
const dequeHome = 0

// DequeReservedLo is the bottom of the deque-reserved key window
// [DequeReservedLo, 2^64-1]: the key-space shadow of the unpartitioned
// deque pinned to shard dequeHome. A reshard plan must never move it —
// clampPlanForDeque trims a moved span that reaches into the window and
// rejects one that lies entirely inside it — so the guard that deque
// state never migrates is structural, not an implicit assumption.
const DequeReservedLo = ^uint64(0) - 1023

// migrateBatch bounds the key-value pairs one migration copy/delete
// transaction touches, keeping each step a bounded transaction instead
// of one scan proportional to the span's population.
const migrateBatch = 256

// autosplitMinRouted is the minimum total routed operations before the
// autosplit trigger trusts the load signal enough to split on it.
const autosplitMinRouted = 1024

// maintainEvery is the maintenance loop's period (autosplit and
// automerge).
const maintainEvery = 2 * time.Second

// reshardResult is the JSON reply of POST /admin/reshard (and the
// autosplit/automerge triggers' log source). Applied=false with a Reason
// is the explicit no-op: nothing worth moving, no degenerate plan
// installed. Plan echoes the direction ("split" or "merge"); NewShard is
// split-only and Recipient merge-only.
type reshardResult struct {
	Plan         string `json:"plan"`
	Applied      bool   `json:"applied"`
	Reason       string `json:"reason,omitempty"`
	Err          string `json:"err,omitempty"`
	Epoch        uint64 `json:"epoch,omitempty"`
	Donor        int    `json:"donor"`
	NewShard     int    `json:"new_shard"`
	Recipient    int    `json:"recipient"`
	MovedLo      uint64 `json:"moved_lo"`
	MovedHi      uint64 `json:"moved_hi"`
	KeysMigrated uint64 `json:"keys_migrated"`
	Shards       int    `json:"shards"`
}

// handleReshard serves POST /admin/reshard: plan, migrate and install
// one placement step live. The optional JSON body selects the direction
// — {"plan":"split"} (the default when the body is empty) or
// {"plan":"merge"}.
func (s *Server) handleReshard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, reshardResult{Err: "POST required"})
		return
	}
	var body struct {
		Plan string `json:"plan"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil && err != io.EOF {
		writeJSON(w, http.StatusBadRequest, reshardResult{Err: fmt.Sprintf("parsing request body: %v", err)})
		return
	}
	switch body.Plan {
	case "", "split":
		body.Plan = "split"
	case "merge":
	default:
		writeJSON(w, http.StatusBadRequest,
			reshardResult{Err: fmt.Sprintf("unknown plan %q (want %q or %q)", body.Plan, "split", "merge")})
		return
	}
	res, code := s.reshard(body.Plan, nil)
	writeJSON(w, code, res)
}

// Reshard splits the heaviest shard live: a new shard takes the upper
// half of its widest span.
func (s *Server) Reshard() (reshardResult, int) { return s.reshard("split", nil) }

// ReshardMerge merges the top shard, when it is the coldest, into its
// neighbour live and retires it.
func (s *Server) ReshardMerge() (reshardResult, int) { return s.reshard("merge", nil) }

// reshard is one placement step, plan "split" or "merge", planned from
// load (nil reads the cumulative routed counters; the autosplit trigger
// passes the operations routed since the last split, the automerge
// trigger its per-interval deltas). One step runs at a time (409 when
// busy); a plan the planner declines is an explicit 200 no-op. A split
// clamps its plan around the deque-reserved window and grows the fleet by
// its recipient; a merge's donor is the fleet's top shard. Either way the
// step ends by retiring the fleet's top shard if the placement does not
// name it: a merge's donor once it flipped, a split's recipient if it
// never did.
func (s *Server) reshard(plan string, load []uint64) (reshardResult, int) {
	split := plan == "split"
	// Registering in inflight keeps Close from tearing shards down under
	// a live migration (it waits for us like any other submission).
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.closed.Load() {
		return reshardResult{Plan: plan, Err: "server shutting down"}, http.StatusServiceUnavailable
	}
	if !s.reshardMu.TryLock() {
		return reshardResult{Plan: plan, Err: "a reshard is already in progress"}, http.StatusConflict
	}
	defer s.reshardMu.Unlock()
	s.resharding.Store(true)
	defer s.resharding.Store(false)

	part, _ := s.place.Load()
	rp, ok := part.(*shard.RangePartitioner)
	if !ok {
		return reshardResult{Plan: plan, Err: fmt.Sprintf("resharding requires the range partitioner (have %q)", part.Kind())},
			http.StatusBadRequest
	}
	fleet := s.fleet()
	if load == nil {
		load = make([]uint64, part.Shards())
		for i := range load {
			load[i] = fleet[i].routed.Load()
		}
	}
	m := spanMove{kind: "reshard", what: "migration"}
	if split {
		m.MovePlan, ok = rp.PlanSplitHeaviest(load)
	} else {
		m.kind, m.what = "merge", "merge"
		m.MovePlan, ok = rp.PlanMergeColdest(load)
	}
	if !ok {
		if split {
			s.opts.Logf("serve: reshard no-op: zero load or heaviest span too narrow to split (shards=%d)", part.Shards())
			return reshardResult{Plan: plan, Reason: "no splittable span (zero load or heaviest span too narrow)",
				Shards: part.Shards()}, http.StatusOK
		}
		s.opts.Logf("serve: merge no-op: single shard or top shard not coldest (shards=%d)", part.Shards())
		return reshardResult{Plan: plan, Reason: "no mergeable span (single shard or top shard not coldest)",
			Shards: part.Shards()}, http.StatusOK
	}

	var err error
	if split {
		if m.MovePlan, err = clampPlanForDeque(m.MovePlan); err != nil {
			return reshardResult{Plan: plan, Err: err.Error(), Donor: m.Donor, NewShard: m.Recipient,
				Shards: part.Shards()}, http.StatusBadRequest
		}
		err = s.growShard(m.Recipient)
	}
	var moved, newEpoch uint64
	if err == nil {
		moved, newEpoch, err = s.moveSpan(m)
	}
	// The placement no longer names the fleet's top shard after a merge
	// flip or a split that failed before its flip (a crash included: the
	// move's record stays for rollbackMove, which skips a recipient that
	// has left the fleet). Drain and retire it so its workers, detector and
	// tuner stop for good; a split that flipped has nothing to retire.
	if len(s.fleet()) > s.part().Shards() {
		s.retireShard()
	}
	res := reshardResult{
		Plan: plan, Donor: m.Donor, MovedLo: m.MovedLo, MovedHi: m.MovedHi,
		KeysMigrated: moved, Shards: s.part().Shards(),
	}
	if split {
		res.NewShard = m.Recipient
	} else {
		res.Recipient = m.Recipient
	}
	if err != nil {
		res.Err = err.Error()
		s.opts.Logf("serve: %s failed: %v", m.kind, err)
		return res, http.StatusServiceUnavailable
	}
	s.keysMigrated.Add(moved)
	res.Applied = true
	res.Epoch = newEpoch
	if split {
		for _, ss := range s.fleet() {
			ss.splitBase.Store(ss.routed.Load())
		}
		s.reshards.Add(1)
		s.opts.Logf("serve: reshard installed: shard %d split, span [%d, %d] -> shard %d, %d keys migrated, placement epoch %d",
			m.Donor, m.MovedLo, m.MovedHi, m.Recipient, moved, newEpoch)
		return res, http.StatusOK
	}
	s.merges.Add(1)
	s.opts.Logf("serve: merge installed: shard %d's span [%d, %d] -> shard %d, %d keys migrated, placement epoch %d, donor retired",
		m.Donor, m.MovedLo, m.MovedHi, m.Recipient, moved, newEpoch)
	return res, http.StatusOK
}

// clampPlanForDeque enforces the deque guard on a split plan: a moved
// span that reaches into the deque-reserved window is trimmed to end at
// DequeReservedLo-1 (the window stays with the donor via an extra tail
// span), and a span entirely inside the window is rejected outright.
// Without the clamp every top-span split would be illegal — the top
// span's moved interval always runs to 2^64-1.
func clampPlanForDeque(plan shard.MovePlan) (shard.MovePlan, error) {
	if plan.MovedLo >= DequeReservedLo {
		return plan, fmt.Errorf("reshard plan rejected: moved span [%d, %d] lies inside the deque-reserved window [%d, 2^64-1]",
			plan.MovedLo, plan.MovedHi, uint64(DequeReservedLo))
	}
	if plan.MovedHi < DequeReservedLo {
		return plan, nil
	}
	starts, owners := plan.Next.Spans()
	// The moved span starts at MovedLo and is owned by Recipient; reaching
	// past DequeReservedLo it must be the table's last span (no boundary
	// is ever created above DequeReservedLo).
	j := len(starts) - 1
	if starts[j] != plan.MovedLo || owners[j] != plan.Recipient {
		return plan, fmt.Errorf("reshard plan rejected: moved span [%d, %d] overlaps the deque-reserved window mid-table",
			plan.MovedLo, plan.MovedHi)
	}
	starts = append(starts, DequeReservedLo)
	owners = append(owners, plan.Donor)
	grown, err := shard.NewRangeFromSpans(starts, owners, plan.Next.Universe())
	if err != nil {
		return plan, fmt.Errorf("reshard plan rejected: clamping around the deque-reserved window: %v", err)
	}
	plan.MovedHi = DequeReservedLo - 1
	plan.Next = grown
	return plan, nil
}

// growShard grows the fleet by shard idx, its top, for a split to fill. It
// is published before any placement can name it: readers load the
// placement first, so once the flip lands, index idx is guaranteed present.
func (s *Server) growShard(idx int) error {
	fleet := s.fleet()
	recip, err := s.newShard(idx)
	if err != nil {
		return fmt.Errorf("building shard %d: %w", idx, err)
	}
	grown := append(fleet[:len(fleet):len(fleet)], recip)
	s.fleetPtr.Store(&grown)
	s.startShard(recip)
	return nil
}

// spanMove is one span migration: the plan's keys leave its donor for its
// recipient and its placement takes effect. kind ("reshard" or "merge")
// and what ("migration" or "merge") name the move in error texts.
type spanMove struct {
	kind, what string
	shard.MovePlan
}

// migRecord identifies the in-flight span move so that whoever finds it
// dead can roll its partial copy back off the recipient. It is set (under
// migMu) right after the donor's fence is acquired and cleared atomically
// with the placement flip: a record still present when the detector
// recovers the token means the flip never happened, so the copied keys on
// the recipient are deletable duplicates.
type migRecord struct {
	token     uint64
	recipient int
	lo, hi    uint64
}

// moveSpan executes one span move: fence the donor under the whole-shard
// signature (every local operation waits for the release, every competing
// cross-shard commit serializes), record the move, stream the span into
// the recipient, flip the placement, and clean the donor up under the same
// fence. It returns the migrated pair count and the installed placement
// epoch.
func (s *Server) moveSpan(m spanMove) (moved uint64, newEpoch uint64, err error) {
	fleet := s.fleet()
	donor, recip := fleet[m.Donor], fleet[m.Recipient]
	// reshardMu admits one move at a time, so a record still live here is
	// a dead move's, its donor still fenced: finish its rollback rather
	// than overwrite the record the detector would have found it by.
	s.migMu.Lock()
	dead := s.activeMig
	s.migMu.Unlock()
	if dead != nil && !s.rollbackMove(dead.token) {
		return 0, 0, fmt.Errorf("rolling back the copy of an earlier span move on shard %d failed", dead.recipient)
	}
	token := s.nextToken.Add(1)
	hold, err := s.acquireMigrationFence(donor, token)
	if err != nil {
		return 0, 0, err
	}
	// Record the move before the first copy batch: if this migrator dies,
	// the failure detector finds the record under the orphaned token and
	// deletes the partial copy from the recipient before releasing the
	// fence.
	s.migMu.Lock()
	s.activeMig = &migRecord{token: token, recipient: recip.idx, lo: m.MovedLo, hi: m.MovedHi}
	s.migMu.Unlock()
	// abort undoes a move that failed before its flip.
	abort := func(format string, args ...any) (uint64, uint64, error) {
		s.rollbackMove(token)
		s.guarded(donor, hold, true, nil)
		return 0, 0, fmt.Errorf(format, args...)
	}

	// Copy the span donor → recipient in bounded batches. Each export runs
	// under the fence-hold guard — if the failure detector recovered the
	// fence, this move is dead and must stop — and re-stamps the holder
	// heartbeat so a long copy is never mistaken for an orphan.
	lo := m.MovedLo
	for {
		if _, fire := s.opts.Fault.Fire(fault.ReshardDonorCrash, donor.idx); fire {
			// Injected migrator crash mid-copy: abandon with the fence held
			// and the record in place, for the failure detector to roll back.
			return 0, 0, fmt.Errorf("%s migrator crashed mid-copy (injected fault); fence recovery pending", m.kind)
		}
		var keys, vals []uint64
		var next uint64
		var resume bool
		r := s.guarded(donor, hold, false, func(tx proteustm.Txn, _ int) response {
			keys, vals, next, resume = donor.store.ExportSpan(tx, lo, m.MovedHi, migrateBatch)
			donor.store.StampFence(tx, hold, uint64(s.clock.Now().UnixNano()))
			return response{}
		})
		if r.Err != "" {
			return abort("exporting span from shard %d: %s", donor.idx, r.Err)
		}
		if !r.Applied {
			// The detector stole the fence; it rolled the copy back if the
			// record was still live. Run the rollback again ourselves in
			// case a batch landed between its delete and the steal.
			s.rollbackMove(token)
			return 0, 0, fmt.Errorf("donor fence recovered out from under the %s; rolled back", m.what)
		}
		if len(keys) > 0 {
			// Install under migMu: rollbackMove serializes on it, so no
			// batch can land on the recipient after a rollback has decided
			// what to delete.
			s.migMu.Lock()
			if s.activeMig == nil || s.activeMig.token != token {
				s.migMu.Unlock()
				return 0, 0, fmt.Errorf("%s rolled back by fence recovery mid-copy", m.kind)
			}
			r = s.ctl(recip, func(tx proteustm.Txn, slot int) response {
				recip.store.InstallPairs(tx, slot, keys, vals)
				return response{}
			})
			s.migMu.Unlock()
			if r.Err != "" {
				return abort("installing span on shard %d: %s", recip.idx, r.Err)
			}
			moved += uint64(len(keys))
		}
		if !resume {
			break
		}
		lo = next
	}

	if _, fire := s.opts.Fault.Fire(fault.ReshardInstallCrash, donor.idx); fire {
		// Injected crash after the copy, before the flip: same rollback as
		// the mid-copy crash.
		return 0, 0, fmt.Errorf("%s migrator crashed before the flip (injected fault); fence recovery pending", m.kind)
	}

	// Flip, atomically retiring the move's record under migMu: from here
	// the move is committed — the recipient owns the span, the copied keys
	// are live data, and no rollback may ever delete them. Any operation
	// routed under the new epoch finds its shard and its data; everything
	// routed under the old epoch either waits on the still-held fence or
	// bounces off the placement bump below.
	s.migMu.Lock()
	if s.activeMig == nil || s.activeMig.token != token {
		// Detector rollback won the race at the last instant: the copy is
		// gone and the fence released. Nothing flipped.
		s.migMu.Unlock()
		return 0, 0, fmt.Errorf("%s rolled back by fence recovery before the flip", m.kind)
	}
	newEpoch = s.place.Install(m.Next)
	s.activeMig = nil
	s.migMu.Unlock()

	// Donor cleanup, entirely under the fence: bump the placement-epoch
	// word (in the same transactions that delete, so a stale-routed
	// operation can never observe the donor after a delete without also
	// observing the bump), remove the moved span in bounded batches,
	// release. If the detector stole the fence mid-cleanup (a falsely
	// declared death — the beat re-stamps make this a pathological
	// FenceDeadline), re-acquire and resume: the flip is installed, and
	// leftover moved keys on the donor would tear range scans.
	for more := true; more; {
		r := s.guarded(donor, hold, false, func(tx proteustm.Txn, slot int) response {
			donor.store.BumpPlacement(tx, newEpoch)
			_, more = donor.store.DeleteSpan(tx, slot, m.MovedLo, m.MovedHi, migrateBatch)
			donor.store.StampFence(tx, hold, uint64(s.clock.Now().UnixNano()))
			return response{}
		})
		if r.Err != "" {
			s.guarded(donor, hold, true, nil)
			return moved, newEpoch, fmt.Errorf("cleaning donor shard %d: %s", donor.idx, r.Err)
		}
		if r.Applied {
			continue
		}
		if hold, err = s.acquireMigrationFence(donor, token); err != nil {
			// Can't re-fence: publish the bump unfenced — monotonic and
			// harmless, and without it stale-routed operations would read
			// the half-deleted span.
			s.ctl(donor, func(tx proteustm.Txn, _ int) response {
				donor.store.BumpPlacement(tx, newEpoch)
				return response{}
			})
			return moved, newEpoch, fmt.Errorf("re-fencing donor for cleanup: %w", err)
		}
	}
	s.guarded(donor, hold, true, nil)
	return moved, newEpoch, nil
}

// acquireMigrationFence claims the donor's fence for the move, riding out
// coordinator contention the way an aborted coordinator does: wait for the
// donor's next fence release, at most the cross-shard backoff, charging the
// retry budget only for the waits that ran into that bound.
func (s *Server) acquireMigrationFence(donor *shardState, token uint64) (FenceHold, error) {
	for spent, tries := 0, 0; ; tries++ {
		gen := donor.relGen.Load()
		r := s.ctlAcquire(donor, token, SigAll)
		if r.Err != "" {
			return FenceHold{}, fmt.Errorf("acquiring donor fence: %s", r.Err)
		}
		if r.Applied {
			return r.hold, nil
		}
		if spent+1 >= s.opts.CrossRetries || tries >= maxFenceTries {
			return FenceHold{}, fmt.Errorf("donor fence contention: exhausted %d acquisition attempts", s.opts.CrossRetries)
		}
		if s.crossWait(donor, gen, spent) {
			spent++
		}
	}
}

// rollbackMove clears a dead span move's partial copy from the recipient
// and retires the move's record. It serializes against the migrator's
// install batches on migMu, so once it returns true no further batch can
// land: the recipient holds no keys from the moved span, and the donor's
// fence may be released. It returns false when the copy could not be fully
// cleared (a control step failed, typically at shutdown) — the caller must
// then NOT release the donor's fence, so the duplicates stay unobservable
// until a later recovery tick finishes the job. A token that doesn't match
// the live record is a no-op: the move either committed (flip cleared the
// record — the keys are live data) or was already rolled back.
func (s *Server) rollbackMove(token uint64) bool {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	rec := s.activeMig
	if rec == nil || rec.token != token {
		return true
	}
	// A split's recipient that never flipped has left the fleet, copy and
	// all (reshard retired it); only the record remains to clear.
	done := "left the fleet with it"
	if fleet := s.fleet(); rec.recipient < len(fleet) {
		done = "cleared"
		recip := fleet[rec.recipient]
		// more starts false each round: a recipient retiring under us (a
		// failed split's) answers without running the step.
		for {
			var more bool
			r := s.ctl(recip, func(tx proteustm.Txn, slot int) response {
				_, more = recip.store.DeleteSpan(tx, slot, rec.lo, rec.hi, migrateBatch)
				return response{}
			})
			if r.Err != "" {
				return false
			}
			if !more {
				break
			}
		}
	}
	s.activeMig = nil
	s.opts.Logf("serve: span-move rollback: copied span [%d, %d] on recipient shard %d %s (token %d)",
		rec.lo, rec.hi, rec.recipient, done, rec.token)
	return true
}

// retireShard drains and permanently stops the fleet's top shard, which
// the placement has stopped naming (a merge's donor after the flip, or a
// split's recipient that never flipped). The caller holds reshardMu. The
// shard leaves the fleet first, so no new router can reach it; then it is
// drained the way Close drains every shard: once stop is closed no slot
// can be leased, every slot token is collected — so nothing executes on
// it any more — its failure detector stops and its ProteusTM system, tuner
// included, is closed. Stragglers that loaded the fleet before the
// truncation, waiting in its line or arriving later, fail their lease on
// the closed stop and get stopAnswer's bounce: data operations re-route,
// control steps report not-applied so their coordinator re-routes off the
// flipped epoch.
func (s *Server) retireShard() {
	fleet := s.fleet()
	ss := fleet[len(fleet)-1]
	ss.retiring.Store(true)
	shrunk := make([]*shardState, len(fleet)-1)
	copy(shrunk, fleet)
	s.fleetPtr.Store(&shrunk)
	ss.drain("retired") //nolint:errcheck // retiring; a late tuner error changes nothing
	ss.retired.Store(true)
	s.shardsRetired.Add(1)
}

// maintenanceLoop is the background trigger behind --autosplit and
// --automerge: a ticker that runs maintain every maintainEvery until
// Close.
func (s *Server) maintenanceLoop() {
	defer s.maintWG.Done()
	t := time.NewTicker(maintainEvery)
	defer t.Stop()
	for {
		select {
		case <-s.maintStop:
			return
		case <-t.C:
			s.maintain()
		}
	}
}

// maintain is one maintenance tick. It:
//
//   - runs the autosplit trigger on the operations routed since the last
//     installed split: hottest shard's share above AutosplitShare with
//     enough total traffic to trust, and room under AutosplitMaxShards.
//     Since the split, not cumulative, so a hotspot the split cooled is
//     not split again for the load it carried before;
//   - runs the automerge trigger on the per-tick routed deltas: when the
//     top shard's share of the last interval's traffic falls below
//     AutomergeShare — or the whole fleet went idle — and the placement
//     is above AutomergeMinShards, it merges the top shard away. Deltas,
//     not cumulative counters, so a shard that was hot an hour ago can
//     still retire once its traffic cools.
//
// A plan either planner declines is an explicit logged no-op — never a
// degenerate install.
func (s *Server) maintain() {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if s.closed.Load() {
		return
	}
	part, _ := s.place.Load()
	fleet := s.fleet()
	routed := make([]uint64, part.Shards())
	sinceSplit := make([]uint64, len(routed))
	var total, hottest uint64
	for i := 0; i < len(routed) && i < len(fleet); i++ {
		routed[i] = fleet[i].routed.Load()
		sinceSplit[i] = routed[i] - min(routed[i], fleet[i].splitBase.Load())
		total += sinceSplit[i]
		hottest = max(hottest, sinceSplit[i])
	}
	delta := make([]uint64, len(routed))
	var totalDelta uint64
	for i, v := range routed {
		d := v
		if i < len(s.prevRouted) && v >= s.prevRouted[i] {
			d = v - s.prevRouted[i]
		}
		delta[i] = d
		totalDelta += d
	}
	s.prevRouted = routed

	if s.opts.AutosplitShare > 0 && part.Shards() < s.opts.AutosplitMaxShards &&
		total >= autosplitMinRouted && float64(hottest)/float64(total) > s.opts.AutosplitShare {
		res, _ := s.reshard("split", sinceSplit)
		switch {
		case res.Applied:
			s.opts.Logf("serve: autosplit: shard %d split at placement epoch %d (%d keys migrated, hottest share %.2f)",
				res.Donor, res.Epoch, res.KeysMigrated, float64(hottest)/float64(total))
		case res.Err != "":
			s.opts.Logf("serve: autosplit attempt failed: %s", res.Err)
		}
		return // never split and merge on the same tick
	}

	if s.opts.AutomergeShare > 0 && part.Shards() > s.opts.AutomergeMinShards {
		top := part.Shards() - 1
		idle := totalDelta == 0
		if idle || float64(delta[top])/float64(totalDelta) < s.opts.AutomergeShare {
			res, _ := s.reshard("merge", delta)
			switch {
			case res.Applied:
				s.opts.Logf("serve: automerge: shard %d merged into %d at placement epoch %d (%d keys migrated, idle=%v)",
					res.Donor, res.Recipient, res.Epoch, res.KeysMigrated, idle)
			case res.Err != "":
				s.opts.Logf("serve: automerge attempt failed: %s", res.Err)
			}
		}
	}
}
