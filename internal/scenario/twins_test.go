package scenario

import (
	"math"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/polytm"
	"repro/internal/serve"
	"repro/internal/stm"
	"repro/internal/tm"
	"repro/internal/workloads"
)

// twin builds a service twin the way the scenario registry does: its
// parameter defaults overridden by params.
func twin(t *testing.T, name string, params Values) workloads.Workload {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %s not registered", name)
	}
	v := s.Defaults()
	for k, val := range params {
		v[k] = val
	}
	wl, err := s.Make(v)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestServiceTwinsConcurrent drives every protocol twin, and the
// single-store streams, on real goroutines, so the fence protocol, the
// 2PC, the failure detector, the span moves and the stores run under
// genuine contention, then checks each workload's invariant via Verify. A run must also stop within a bounded wall time:
// a livelocked twin fails the test instead of hanging it. CI runs it under
// -race, which makes it a data-race probe too.
func TestServiceTwinsConcurrent(t *testing.T) {
	for _, tc := range []struct {
		leg, name string
		params    Values
	}{
		{"sharded", "service-sharded", Values{"keyrange": "1024", "span": "32", "batchevery": "8", "batchkeys": "6"}},
		{"range", "service-range", Values{"partitioner": "hash"}},
		{"hotkey", "service-hotkey", Values{"mix": "scan"}},
		{"chaos-crash", "service-chaos", Values{"fault": "crash", "faultevery": "2"}},
		{"chaos-stall", "service-chaos", Values{"fault": "stall", "faultevery": "2"}},
		{"reshard", "service-reshard", Values{"splitevery": "500"}},
		{"merge", "service-merge", Values{"mergeevery": "500"}},
		{"kv", "service-kv", Values{"phaseops": "500"}},
		{"diurnal", "service-diurnal", nil},
	} {
		t.Run(tc.leg, func(t *testing.T) {
			wl := twin(t, tc.name, tc.params)
			pool := polytm.New(1<<20, 4, config.Config{Alg: config.TL2, Threads: 4})
			if err := wl.Setup(pool.Heap(), workloads.NewRand(7)); err != nil {
				t.Fatalf("Setup: %v", err)
			}
			d := &workloads.Driver{Workload: wl, Runner: pool, MaxThreads: 4, Seed: 7}
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(150 * time.Millisecond)
			stopped := make(chan struct{})
			go func() {
				d.Stop()
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(20 * time.Second):
				t.Fatalf("workers still running 20s after Stop: livelock")
			}
			if d.Ops() == 0 {
				t.Fatal("no operations completed")
			}
			if err := wl.(workloads.Verifier).Verify(pool.Heap()); err != nil {
				t.Fatalf("post-run invariant after %d ops: %v", d.Ops(), err)
			}
			if m, ok := wl.(workloads.Metered); ok {
				t.Logf("%d ops: %v", d.Ops(), m.Metrics())
			}
		})
	}
}

// discardFirst runs every atomic block twice: first against a private
// write buffer that is then thrown away — an attempt aborted at commit
// time, whose body the runner re-runs — and then for real. A body that
// leaks state out of a discarded attempt (a cursor it advanced, a flag it
// set) misbehaves under it.
type discardFirst struct {
	workloads.Runner
	h *tm.Heap
}

func (d discardFirst) Atomic(self int, fn func(tm.Txn)) {
	fn(&bufferedTxn{h: d.h, w: map[tm.Addr]uint64{}})
	d.Runner.Atomic(self, fn)
}

// bufferedTxn reads the committed heap through its own writes.
type bufferedTxn struct {
	h *tm.Heap
	w map[tm.Addr]uint64
}

func (t *bufferedTxn) Load(a tm.Addr) uint64 {
	if v, ok := t.w[a]; ok {
		return v
	}
	return t.h.LoadWord(a)
}

func (t *bufferedTxn) Store(a tm.Addr, v uint64) { t.w[a] = v }

// TestSpanMoveSurvivesAbortedAttempts runs both span-move directions
// (split and merge) with every transaction preceded by a discarded
// attempt. The moves must migrate exactly the keys a plain run migrates
// and leave every key on the shard the final placement owns it on.
func TestSpanMoveSurvivesAbortedAttempts(t *testing.T) {
	for _, name := range []string{"service-reshard", "service-merge"} {
		t.Run(name, func(t *testing.T) {
			run := func(discard bool) map[string]uint64 {
				wl := twin(t, name, nil)
				pool := polytm.New(1<<21, 1, config.Config{Alg: config.TL2, Threads: 1})
				if err := wl.Setup(pool.Heap(), workloads.NewRand(3)); err != nil {
					t.Fatalf("Setup: %v", err)
				}
				var r workloads.Runner = pool
				if discard {
					r = discardFirst{Runner: pool, h: pool.Heap()}
				}
				workloads.NewSerialDriver(wl, r, 1, 3).Run(3200)
				if err := wl.(workloads.Verifier).Verify(pool.Heap()); err != nil {
					t.Fatalf("discard=%v: post-run invariant: %v", discard, err)
				}
				return wl.(workloads.Metered).Metrics()
			}
			plain, discarded := run(false), run(true)
			if plain["placement_epoch"] != 2 || plain["keys_migrated"] == 0 {
				t.Fatalf("want two installed moves that migrate keys: %v", plain)
			}
			if discarded["keys_migrated"] != plain["keys_migrated"] || discarded["placement_epoch"] != plain["placement_epoch"] {
				t.Fatalf("aborted attempts changed the moves: migrated %d keys at epoch %d, a plain run %d at epoch %d",
					discarded["keys_migrated"], discarded["placement_epoch"], plain["keys_migrated"], plain["placement_epoch"])
			}
		})
	}
}

// TestServiceShardedRoutingInvariant checks the serial path too: after a
// deterministic run every key sits on its owning shard (Verify) and the
// per-shard stores are non-trivially populated.
func TestServiceShardedRoutingInvariant(t *testing.T) {
	wl := &ServiceSharded{Shards: 3, KeyRange: 512, BatchEvery: 4, BatchKeys: 5}
	pool := polytm.New(1<<20, 2, config.Config{Alg: config.NOrec, Threads: 2})
	if err := wl.Setup(pool.Heap(), workloads.NewRand(3)); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	sd := workloads.NewSerialDriver(wl, pool, 2, 3)
	sd.Run(2000)
	if err := wl.Verify(pool.Heap()); err != nil {
		t.Fatalf("post-run invariant: %v", err)
	}
	seq := workloads.NewBareRunner(&stm.GlobalLock{}, pool.Heap(), 1)
	total := uint64(0)
	for i, st := range wl.kv.stores {
		var n uint64
		seq.Atomic(0, func(tx tm.Txn) { n, _ = st.Range(tx, 0, math.MaxUint64) })
		if n == 0 {
			t.Errorf("shard %d store is empty after 2000 ops", i)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("all shard stores empty")
	}
}

// TestBatchFenceCoversOnlyItsKeys holds a cross-shard batch's fences in
// the sharded twin: a local operation on a key outside the batch's
// signature runs, one on a batch key comes back fenced with nothing
// applied, and after the commit both run.
func TestBatchFenceCoversOnlyItsKeys(t *testing.T) {
	wl := &ServiceSharded{Shards: 4, KeyRange: 1024, BatchKeys: 4}
	pool := polytm.New(1<<20, 1, config.Config{Alg: config.TL2, Threads: 1})
	if err := wl.Setup(pool.Heap(), workloads.NewRand(5)); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	kv := wl.kv
	place := kv.place.Load()
	batch := mput{part: place.part, keys: []uint64{1, 2, 3, 4}, val: 77}
	parts := place.part.Participants(batch.keys)
	if len(parts) < 2 {
		t.Fatalf("batch %v lands on %v, want a cross-shard batch", batch.keys, parts)
	}
	h, ok := kv.acquire(pool, 0, parts, batch.sig, 9, 9, place.epoch)
	if !ok {
		t.Fatal("acquire refused on an idle store")
	}
	// A batch key on the first participant, and a key there whose
	// signature bit no batch key there shares.
	p := parts[0]
	var batchKey, free uint64
	var owned []uint64
	for _, k := range batch.keys {
		if place.part.Owner(k) == p {
			batchKey, owned = k, append(owned, k)
		}
	}
	for k := uint64(5); free == 0 && k < 1024; k++ {
		if place.part.Owner(k) == p && serve.KeyFenceSig([]uint64{k})&serve.KeyFenceSig(owned) == 0 {
			free = k
		}
	}
	if free == 0 {
		t.Fatalf("no key below 1024 on shard %d outside the signature of %v", p, owned)
	}
	put := func(k uint64) (fenced bool) {
		fenced, _ = kv.local(pool, 0, p, place.epoch, pointOp(namedMix("mixed"), 0.6, 0, k, 99))
		return fenced
	}
	get := func(k uint64) (v uint64) {
		pool.Atomic(0, func(tx tm.Txn) { v, _ = kv.stores[p].Get(tx, k) })
		return v
	}
	if put(free) || get(free) != 99 {
		t.Errorf("put of key %d, outside the batch's signature, was fenced", free)
	}
	if !put(batchKey) || get(batchKey) == 99 {
		t.Errorf("put of batch key %d ran under the batch's fence", batchKey)
	}
	kv.commit(pool, 0, h, batch.apply)
	if get(batchKey) != 77 || put(batchKey) || get(batchKey) != 99 {
		t.Errorf("batch key %d: the commit did not apply and release", batchKey)
	}
	if err := wl.Verify(pool.Heap()); err != nil {
		t.Fatal(err)
	}
}
