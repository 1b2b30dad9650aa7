package serve

// Merge-resharding battery: the shrink direction of the live-resharding
// pipeline — plan through PlanMergeColdest, fence the retiring donor,
// copy into the live recipient, flip the placement one shard smaller,
// drain and retire the donor. Covers the admin surface (direction
// selection, the split-vs-merge 409), full key preservation across a
// shrink, the spare-shard reaper, the loadgen replica shrink, and the
// centerpiece: linearizability of traffic racing a live merge under both
// injected migrator crashes.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// heatAllBut makes every shard except the fleet's top shard hot, so the
// top shard is the unambiguous coldest and PlanMergeColdest retires it.
func heatAllBut(s *Server, top int, n uint64) {
	for i, ss := range s.fleet() {
		if i != top {
			ss.routed.Add(n)
		}
	}
}

// TestReshardMergeShrinksFleet is the shrink mainline: a preloaded
// 4-shard range daemon merges its coldest (top) shard away twice; every
// key keeps its value through both shrinks, the retired donors' workers
// verifiably stop, and the observables line up.
func TestReshardMergeShrinksFleet(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 4, Workers: 2, Partitioner: shard.KindRange, Preload: 16384,
	})
	// With 4 even spans over the 16384-key universe, shard 3 owns
	// [12288, 2^64-1] and holds the top 4096 preloaded keys. Heating the
	// other three makes it the coldest, so the merge moves its span into
	// the adjacent shard 2.
	heatAllBut(s, 3, 5_000)
	donor := s.fleet()[3]

	res, code := s.ReshardMerge()
	if code != http.StatusOK || !res.Applied {
		t.Fatalf("merge = %d %+v", code, res)
	}
	if res.Plan != "merge" || res.Donor != 3 || res.Recipient != 2 || res.MovedLo != 12288 || res.MovedHi != ^uint64(0) {
		t.Fatalf("unexpected plan: %+v", res)
	}
	if res.KeysMigrated != 4096 {
		t.Fatalf("keys_migrated = %d, want 4096 (preloaded span population)", res.KeysMigrated)
	}
	if res.Epoch != 1 || s.place.Epoch() != 1 {
		t.Fatalf("placement epoch = %d/%d, want 1", res.Epoch, s.place.Epoch())
	}
	if res.Shards != 3 || s.part().Shards() != 3 || len(s.fleet()) != 3 {
		t.Fatalf("shards after merge: res=%d placement=%d fleet=%d, want 3", res.Shards, s.part().Shards(), len(s.fleet()))
	}
	if got := s.part().Owner(13000); got != 2 {
		t.Fatalf("merged key 13000 owned by shard %d, want recipient 2", got)
	}
	if got := s.part().Owner(1000); got != 0 {
		t.Fatalf("untouched key 1000 owned by shard %d, want 0", got)
	}
	// The donor must be drained for good: retireShard waits for its
	// workers synchronously, so by now the flag is set and its system
	// closed — the workers are verifiably stopped, not leaked.
	if !donor.retired.Load() {
		t.Fatal("donor shard 3 not marked retired after the merge")
	}
	waitUntil(t, 2*time.Second, "fences free after merge", func() bool { return fencesFree(s) })

	// Every preloaded key still reads its value through the normal routed
	// path — recipient-absorbed, donor-origin, and untouched shards alike.
	for _, k := range []uint64{0, 1000, 8191, 8192, 12287, 12288, 13000, 16383} {
		resp, code := s.submitRouted(&request{op: opGet, key: k})
		if code != http.StatusOK || !resp.Found || resp.Val != k {
			t.Fatalf("post-merge get(%d) = %d %+v", k, code, resp)
		}
	}
	// The recipient holds the span exactly once: a scan over the whole
	// preload counts each key exactly once — no lost and no torn keys.
	resp, code := s.submitCross(&request{op: opRange, lo: 0, hi: 16383})
	if code != http.StatusOK || resp.Count != 16384 {
		t.Fatalf("post-merge full scan = %d %+v, want count 16384", code, resp)
	}

	st := s.StatusSnapshot()
	if st.Server.Shards != 3 || st.Server.PartitionerEpoch != 1 || st.Server.Resharding || st.Server.SpareShards != 0 {
		t.Fatalf("statusz after merge: %+v", st.Server)
	}
	if len(st.Server.SpanStarts) != 3 || len(st.Server.SpanOwners) != 3 {
		t.Fatalf("span table after merge: starts=%v owners=%v, want 3 spans", st.Server.SpanStarts, st.Server.SpanOwners)
	}
	if st.Ops.Merges != 1 || st.Ops.ShardsRetired != 1 || st.Ops.KeysMigrated != 4096 {
		t.Fatalf("ops counters after merge: merges=%d shards_retired=%d keys_migrated=%d",
			st.Ops.Merges, st.Ops.ShardsRetired, st.Ops.KeysMigrated)
	}
	for _, sh := range st.Shards {
		if sh.FenceHeld {
			t.Fatalf("shard %d fence still held after merge", sh.Index)
		}
	}

	// A second merge keeps working (3 -> 2, epoch 2), and the deque —
	// pinned to shard 0, never migrated — stays fully functional.
	heatAllBut(s, 2, 50_000)
	res2, code := s.ReshardMerge()
	if code != http.StatusOK || !res2.Applied || res2.Epoch != 2 || res2.Shards != 2 {
		t.Fatalf("second merge = %d %+v", code, res2)
	}
	if res2.KeysMigrated != 8192 {
		t.Fatalf("second merge keys_migrated = %d, want 8192", res2.KeysMigrated)
	}
	if resp, code := s.submit(s.shardFor(&request{op: opRPush, val: 77}), &request{op: opRPush, val: 77}); code != http.StatusOK || !resp.Applied {
		t.Fatalf("rpush after two merges = %d %+v", code, resp)
	}
	if resp, code := s.submit(s.shardFor(&request{op: opLPop}), &request{op: opLPop}); code != http.StatusOK || !resp.Found || resp.Val != 77 {
		t.Fatalf("lpop after two merges = %d %+v", code, resp)
	}
	resp, code = s.submitCross(&request{op: opRange, lo: 0, hi: 16383})
	if code != http.StatusOK || resp.Count != 16384 {
		t.Fatalf("full scan after two merges = %d %+v, want count 16384", code, resp)
	}
}

// TestMergeAdminSurface pins the endpoint contract for the merge
// direction: body-selected plan, 400 on an unknown plan and on a
// non-range partitioner, the explicit applied=false no-op when the top
// shard is not coldest, and the split-vs-merge 409 — both directions
// share the single-migration lock.
func TestMergeAdminSurface(t *testing.T) {
	hash := newTestServer(t, Options{Shards: 2, Workers: 2})
	res, code := hash.ReshardMerge()
	if code != http.StatusBadRequest || !strings.Contains(res.Err, "range partitioner") {
		t.Fatalf("merge on hash partitioner = %d %+v, want 400", code, res)
	}

	s := newTestServer(t, Options{Shards: 3, Workers: 2, Partitioner: shard.KindRange})
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(body string) (int, reshardResult) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/admin/reshard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /admin/reshard: %v", err)
		}
		defer resp.Body.Close()
		var r reshardResult
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatalf("decoding reshard reply: %v", err)
		}
		return resp.StatusCode, r
	}

	if code, r := post(`{"plan":"defrag"}`); code != http.StatusBadRequest || !strings.Contains(r.Err, "unknown plan") {
		t.Fatalf(`POST {"plan":"defrag"} = %d %+v, want 400`, code, r)
	}

	// Top shard hottest: the planner declines and the server reports the
	// no-op instead of retiring a hot shard.
	s.fleet()[2].routed.Add(10_000)
	if code, r := post(`{"plan":"merge"}`); code != http.StatusOK || r.Applied || r.Reason == "" {
		t.Fatalf("hot-top merge = %d %+v, want applied=false with a reason", code, r)
	}
	if got := s.part().Shards(); got != 3 {
		t.Fatalf("no-op merge changed the placement to %d shards", got)
	}
	if got := s.place.Epoch(); got != 0 {
		t.Fatalf("no-op merge moved the placement epoch to %d", got)
	}

	// Both directions contend on the same lock: with a migration
	// in flight, split and merge both answer 409.
	s.reshardMu.Lock()
	if code, r := post(`{"plan":"split"}`); code != http.StatusConflict || !strings.Contains(r.Err, "already in progress") {
		t.Fatalf("split during a reshard = %d %+v, want 409", code, r)
	}
	if code, r := post(`{"plan":"merge"}`); code != http.StatusConflict || !strings.Contains(r.Err, "already in progress") {
		t.Fatalf("merge during a reshard = %d %+v, want 409", code, r)
	}
	s.reshardMu.Unlock()
}

// TestSpareReaper pins the spare-shard leak fix: a rolled-back split
// leaves its recipient as a spare (a full worker pool and tuner the
// placement never names); the maintenance loop must retire it after the
// grace period instead of leaking it forever.
func TestSpareReaper(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 3, Workers: 2, Partitioner: shard.KindRange, Preload: 1024,
		Fault:             mustFault(t, "reshard-donor-crash@count=1", 1),
		FenceDeadline:     60 * time.Millisecond,
		SpareGrace:        50 * time.Millisecond,
		AutosplitInterval: 20 * time.Millisecond,
	})
	s.fleet()[0].routed.Add(10_000)

	// The injected crash kills the migrator mid-copy: the fleet has grown
	// to 4 but the placement still names 3 — the new shard is a spare.
	res, code := s.Reshard()
	if code != http.StatusServiceUnavailable || res.Applied || !strings.Contains(res.Err, "injected fault") {
		t.Fatalf("faulted reshard = %d %+v, want 503 with the injected-fault error", code, res)
	}
	if len(s.fleet()) != 4 || s.part().Shards() != 3 {
		t.Fatalf("after the crash: fleet=%d placement=%d, want a 4-shard fleet over a 3-shard placement",
			len(s.fleet()), s.part().Shards())
	}
	if st := s.StatusSnapshot(); st.Server.SpareShards != 1 {
		t.Fatalf("spare_shards = %d after the rolled-back split, want 1", st.Server.SpareShards)
	}

	waitUntil(t, 5*time.Second, "fence recovery after migrator crash", func() bool { return fencesFree(s) })
	// The spare leaves the fleet first and is counted once it has stopped.
	waitUntil(t, 5*time.Second, "spare reaper to retire the idle spare", func() bool {
		return len(s.fleet()) == 3 && s.shardsRetired.Load() >= 1
	})

	st := s.StatusSnapshot()
	if st.Server.SpareShards != 0 {
		t.Fatalf("spare_shards = %d after the reaper ran, want 0", st.Server.SpareShards)
	}
	if st.Ops.ShardsRetired < 1 {
		t.Fatalf("shards_retired = %d after the reaper ran, want >= 1", st.Ops.ShardsRetired)
	}
	// The survivors still serve the whole preload; the rollback left no
	// half-copied state observable.
	for _, k := range []uint64{0, 500, 1023} {
		resp, code := s.submitRouted(&request{op: opGet, key: k})
		if code != http.StatusOK || !resp.Found || resp.Val != k {
			t.Fatalf("post-reap get(%d) = %d %+v", k, code, resp)
		}
	}
}

// TestAutomerge pins the background shrink trigger: once the top shard's
// share of the per-interval traffic falls below the threshold (here: the
// fleet goes fully idle), the daemon merges it away without an admin
// call — and stops at the configured floor.
func TestAutomerge(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 4, Workers: 2, Partitioner: shard.KindRange, Preload: 1024,
		AutomergeShare: 0.1, AutomergeMinShards: 3, AutosplitInterval: 20 * time.Millisecond,
	})
	waitUntil(t, 5*time.Second, "automerge to retire the idle top shard", func() bool { return s.part().Shards() == 3 })
	if got := s.place.Epoch(); got != 1 {
		t.Fatalf("placement epoch after automerge = %d, want 1", got)
	}
	// The floor holds even though the fleet stays idle.
	time.Sleep(100 * time.Millisecond)
	if got := s.part().Shards(); got != 3 {
		t.Fatalf("automerge undershot the floor: %d shards", got)
	}
	waitUntil(t, 2*time.Second, "fences free after automerge", func() bool { return fencesFree(s) })
	for _, k := range []uint64{0, 500, 1023} {
		resp, code := s.submitRouted(&request{op: opGet, key: k})
		if code != http.StatusOK || !resp.Found || resp.Val != k {
			t.Fatalf("post-automerge get(%d) = %d %+v", k, code, resp)
		}
	}
}

// TestMergeLinearizability is the shrink centerpiece: concurrent
// gets/puts/cross-shard mputs/range scans race a live merge — in the
// crash legs with the migrator killed mid-copy or after the copy just
// before the flip (rolled back by the failure detector, partial copy
// deleted off the live recipient, then retried to completion). The
// committed history plus a full post-quiescence sweep must admit a
// sequential witness: no lost, torn or double-visible key, ever — in
// particular no key the rollback left duplicated on the recipient.
func TestMergeLinearizability(t *testing.T) {
	for _, leg := range []struct{ name, fault string }{
		{"clean", ""},
		{"donor-crash", "reshard-donor-crash@count=1"},
		{"install-crash", "reshard-install-crash@count=1"},
	} {
		t.Run(leg.name, func(t *testing.T) {
			underKeyedFences(t, func(t *testing.T) { testMergeLinearizability(t, leg.fault) })
		})
	}
}

func testMergeLinearizability(t *testing.T, faultSpec string) {
	opts := Options{
		Shards: 4, Workers: 2, HeapWords: 1 << 16,
		Partitioner:   shard.KindRange,
		CrossRetries:  512, // ride out fences held across a recovery window
		FenceDeadline: 80 * time.Millisecond,
	}
	if faultSpec != "" {
		opts.Fault = mustFault(t, faultSpec, 1)
	}
	s := newTestServer(t, opts)
	// Shard 3 is the forced coldest: its span [12288, 2^64-1] merges into
	// shard 2, so keys 13000/13500 migrate while 1, 6000 and 11000 pin
	// the surviving shards as participants throughout.
	heatAllBut(s, 3, 10_000)
	donor := s.fleet()[3]
	keys := []uint64{1, 6000, 11000, 13000, 13500}

	base := time.Now()
	rec := &linRecorder{}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := uint64(c*31 + 7)
			next := func(n uint64) uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return (rng >> 33) % n }
			for i := 0; i < 6; i++ {
				k := keys[next(uint64(len(keys)))]
				v := uint64(c*1000 + i + 1)
				op := shard.Op{Invoke: int64(time.Since(base))}
				var resp response
				var code int
				switch next(4) {
				case 0:
					op.Kind = shard.OpGet
					op.Keys = []uint64{k}
					resp, code = s.submitRouted(&request{op: opGet, key: k})
					op.Vals, op.Oks = []uint64{resp.Val}, []bool{resp.Found}
				case 1:
					op.Kind = shard.OpPut
					op.Keys, op.Args = []uint64{k}, []uint64{v}
					resp, code = s.submitRouted(&request{op: opPut, key: k, val: v})
					op.Oks = []bool{resp.Existed}
				case 2:
					op.Kind = shard.OpMPut
					op.Keys = append([]uint64{}, keys[2:]...)
					op.Args = []uint64{v, v, v}
					resp, code = s.submitCross(&request{op: opMPut, keys: op.Keys, vals: op.Args})
				default:
					op.Kind = shard.OpRange
					op.Keys = []uint64{0, 14000}
					resp, code = s.submitCross(&request{op: opRange, lo: 0, hi: 14000})
					op.Vals = []uint64{resp.Count, resp.Sum}
				}
				op.Return = int64(time.Since(base))
				if code != http.StatusOK {
					t.Errorf("client %d op %d: HTTP %d %+v", c, i, code, resp)
					return
				}
				rec.record(op)
				time.Sleep(time.Duration(next(3)) * time.Millisecond)
			}
		}(c)
	}

	// The merge lands mid-traffic. In the crash legs the first attempt is
	// killed by the injector; the failure detector deletes the partial
	// copy off the live recipient and releases the fence, the fleet keeps
	// all four shards, and the retry must complete.
	time.Sleep(5 * time.Millisecond)
	res, code := s.ReshardMerge()
	if faultSpec == "" {
		if code != http.StatusOK || !res.Applied {
			t.Fatalf("merge = %d %+v", code, res)
		}
	} else {
		if code != http.StatusServiceUnavailable || res.Applied || !strings.Contains(res.Err, "injected fault") {
			t.Fatalf("faulted merge = %d %+v, want 503 with the injected-fault error", code, res)
		}
		waitUntil(t, 5*time.Second, "fence recovery after migrator crash", func() bool { return fencesFree(s) })
		// Rollback, not retire: the placement and fleet keep all four
		// shards, and nothing was merged.
		if len(s.fleet()) != 4 || s.part().Shards() != 4 {
			t.Fatalf("after the crash: fleet=%d placement=%d, want 4/4 (rollback must not retire)",
				len(s.fleet()), s.part().Shards())
		}
		res, code = s.ReshardMerge()
		if code != http.StatusOK || !res.Applied {
			t.Fatalf("merge retry after rollback = %d %+v", code, res)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := s.part().Shards(); got != 3 {
		t.Fatalf("placement has %d shards after the merge, want 3", got)
	}
	if !donor.retired.Load() {
		t.Fatal("donor shard 3 not retired after the merge")
	}

	// Post-quiescence sweep: one recorded get per key. A lost key, a torn
	// key, or a rollback duplicate shows up as a history no sequential
	// witness can explain.
	for _, k := range keys {
		op := shard.Op{Kind: shard.OpGet, Keys: []uint64{k}, Invoke: int64(time.Since(base))}
		resp, code := s.submitRouted(&request{op: opGet, key: k})
		if code != http.StatusOK {
			t.Fatalf("sweep get(%d) = %d %+v", k, code, resp)
		}
		op.Vals, op.Oks = []uint64{resp.Val}, []bool{resp.Found}
		op.Return = int64(time.Since(base))
		rec.record(op)
	}
	if _, ok := shard.Linearize(rec.ops); !ok {
		t.Fatalf("history of %d ops racing a live merge admits no sequential witness: %+v", len(rec.ops), rec.ops)
	}

	// Quiescence: no fence held on any surviving shard, the gauge clear.
	waitUntil(t, 2*time.Second, "fences free after the merge", func() bool { return fencesFree(s) })
	if s.resharding.Load() {
		t.Fatal("resharding gauge still set after the merge completed")
	}
	st := s.StatusSnapshot()
	if st.Server.Resharding || st.Server.PartitionerEpoch == 0 || st.Server.SpareShards != 0 {
		t.Fatalf("statusz after merge: %+v", st.Server)
	}
	for _, sh := range st.Shards {
		if sh.FenceHeld {
			t.Fatalf("shard %d fence_held still true after the merge", sh.Index)
		}
	}
}

// TestBuildSkewPlanShrunkFleet pins the loadgen replica-shrink fix: a
// status snapshot caught mid-merge reports a fleet already truncated
// (Shards = n-1) under a span table still naming owner n-1. The plan
// must size itself from the span table, not the fleet count — the old
// code panicked indexing pools[Owner(k)].
func TestBuildSkewPlanShrunkFleet(t *testing.T) {
	st := &ServerStatus{
		Shards:      2, // fleet truncated one ahead of the placement
		Partitioner: shard.KindRange,
		KeyUniverse: 16384,
		SpanStarts:  []uint64{0, 4096, 8192},
		SpanOwners:  []int{0, 1, 2},
	}
	plan := buildSkewPlan(st, 16384)
	if plan.shards != 3 {
		t.Fatalf("plan.shards = %d, want 3 (sized from the span table)", plan.shards)
	}
	if len(plan.pools) != 3 || len(plan.hot) != 3 {
		t.Fatalf("plan pools/hot sized %d/%d, want 3/3", len(plan.pools), len(plan.hot))
	}
	for sh, pool := range plan.pools {
		if len(pool) == 0 {
			t.Fatalf("shard %d pool empty under an even 3-span table", sh)
		}
		for _, k := range pool {
			if int(k/4096) != sh && !(sh == 2 && k >= 8192) {
				t.Fatalf("key %d pooled on shard %d", k, sh)
			}
		}
	}
}

// TestLoadgenRidesLiveMerge runs a skewed loadgen session across a live
// merge: the status sampler must detect the placement-epoch move,
// rebuild its partitioner replica with fewer spans (counted in
// report.Replans) and finish the session with zero client-visible
// errors.
func TestLoadgenRidesLiveMerge(t *testing.T) {
	s := newTestServer(t, Options{
		Shards: 4, Workers: 2, Partitioner: shard.KindRange, Preload: 8192,
		CrossRetries: 512,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Merge mid-session: swamp the routed counters so shard 3 is the
	// unambiguous coldest regardless of the loadgen traffic pattern.
	var mergeRes reshardResult
	var mergeCode int
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(200 * time.Millisecond)
		heatAllBut(s, 3, 10_000_000)
		mergeRes, mergeCode = s.ReshardMerge()
	}()

	phases, err := ParsePhases("mixed:1200ms")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLoadgen(LoadgenOptions{
		BaseURL:  ts.URL,
		Conns:    4,
		Phases:   phases,
		KeyRange: 16384,
		Span:     256,
		Skew:     0.8,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if mergeCode != http.StatusOK || !mergeRes.Applied {
		t.Fatalf("mid-session merge = %d %+v", mergeCode, mergeRes)
	}
	if report.Total.Ops == 0 {
		t.Fatal("loadgen completed no operations")
	}
	if report.Total.Errors != 0 {
		t.Fatalf("loadgen hit %d errors riding a live merge", report.Total.Errors)
	}
	if report.Replans < 1 {
		t.Fatalf("report.Replans = %d, want >= 1 (the sampler must rebuild across the merge)", report.Replans)
	}
	if got := s.part().Shards(); got != 3 {
		t.Fatalf("placement has %d shards after the merge, want 3", got)
	}
}
