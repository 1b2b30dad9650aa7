package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	proteustm "repro"
	"repro/internal/shard"
)

// call runs one request through ServeHTTP in process and decodes the reply.
func call(t *testing.T, s *Server, url string) (int, response) {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	var r response
	if err := json.NewDecoder(w.Body).Decode(&r); err != nil {
		t.Fatalf("GET %s: decoding %q: %v", url, w.Body.String(), err)
	}
	return w.Code, r
}

// within fails the test unless fn returns inside a second: after a full heap
// the shard must answer, not hang.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s did not return within a second of the shard's heap filling up", what)
	}
}

// TestHeapFullAnswers507 is the reproduction of the wedge: puts of fresh keys
// over ServeHTTP until the shard's 4096-word heap has no room for another
// tree node. That put must be answered 507 — not panic out of the handler
// with the thread gate, the drain lock and the slot token all held — and the
// shard must go on serving: reads, updates of existing keys (no node
// needed), /statusz (which parks every TM thread to snapshot its counters)
// and Close.
func TestHeapFullAnswers507(t *testing.T) {
	s, err := New(Options{Workers: 2, HeapWords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	full := -1
	for k := 0; k < 4096 && full < 0; k++ {
		code, r := call(t, s, fmt.Sprintf("/kv/put?key=%d&val=%d", k, k))
		switch {
		case code == http.StatusInsufficientStorage && r.Err == "shard heap full":
			full = k
		case code != http.StatusOK:
			t.Fatalf("put %d = HTTP %d %+v", k, code, r)
		}
	}
	if full < 1 {
		t.Fatalf("4096 keys fit a 4096-word heap (first refused key: %d)", full)
	}
	within(t, "get", func() {
		if code, r := call(t, s, "/kv/get?key=0"); code != http.StatusOK || !r.Found {
			t.Errorf("get after full heap = HTTP %d %+v", code, r)
		}
	})
	within(t, "an update and another refused put", func() {
		if code, r := call(t, s, "/kv/put?key=0&val=9"); code != http.StatusOK || !r.Existed {
			t.Errorf("update of an existing key on a full heap = HTTP %d %+v", code, r)
		}
		if code, r := call(t, s, fmt.Sprintf("/kv/put?key=%d&val=1", full)); code != http.StatusInsufficientStorage {
			t.Errorf("second put of key %d = HTTP %d %+v, want 507", full, code, r)
		}
		if code, r := call(t, s, "/list/lpush?val=1"); code != http.StatusInsufficientStorage {
			t.Errorf("lpush on a full heap = HTTP %d %+v, want 507", code, r)
		}
	})
	within(t, "a control step that allocates", func() {
		ss := s.fleet()[0]
		r := s.ctl(ss, func(tx proteustm.Txn, slot int) response {
			ss.store.Put(tx, slot, uint64(full), 1)
			return response{Applied: true}
		})
		if r.Err != heapFull.Err || r.code != http.StatusInsufficientStorage {
			t.Errorf("control step on a full heap answered %+v", r)
		}
	})
	within(t, "/statusz", func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statusz", nil))
		if w.Code != http.StatusOK {
			t.Errorf("/statusz = HTTP %d", w.Code)
		}
	})
	within(t, "Close", func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
}

// TestHeapFullRefusesCrossShardBatchWhole: an mput that needs a node on a
// full participant is refused before anything is decided — the part owned by
// the shard that has room is not applied — and both shards keep serving.
func TestHeapFullRefusesCrossShardBatchWhole(t *testing.T) {
	s := newTestServer(t, Options{Shards: 2, Workers: 2, HeapWords: 4096})
	// Fill shard 1 with keys it owns; remember a fresh key for each shard.
	var fresh [2]uint64
	for k := uint64(0); ; k++ {
		o := s.part().Owner(k)
		if o == 0 {
			fresh[0] = k
			continue
		}
		if code, _ := call(t, s, fmt.Sprintf("/kv/put?key=%d&val=1", k)); code == http.StatusInsufficientStorage {
			fresh[1] = k
			break
		}
	}
	within(t, "the refused mput and the reads after it", func() {
		url := fmt.Sprintf("/kv/mput?keys=%d,%d&vals=5,6", fresh[0], fresh[1])
		if code, r := call(t, s, url); code != http.StatusInsufficientStorage || r.Err != heapFull.Err {
			t.Errorf("mput onto a full participant = HTTP %d %+v, want 507", code, r)
		}
		for _, k := range fresh {
			if code, r := call(t, s, fmt.Sprintf("/kv/get?key=%d", k)); code != http.StatusOK || r.Found {
				t.Errorf("get %d after the refused mput = HTTP %d %+v, want 200 and absent", k, code, r)
			}
		}
	})
}

// TestOversizedPreloadIsAnError: a preload the heaps cannot hold makes New
// return an error that says how far it got — it used to panic, and with each
// shard preloading on its own goroutine a panic there would kill the process.
func TestOversizedPreloadIsAnError(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s, err := New(Options{Shards: shards, Workers: 2, Preload: 200000, HeapWords: 1 << 16})
		if err == nil {
			s.Close() //nolint:errcheck // already failing
			t.Fatalf("%d shard(s): New accepted a preload of 200000 keys into 65536-word heaps", shards)
		}
		if msg := err.Error(); !strings.Contains(msg, "preload of 200000 keys does not fit") || !strings.Contains(msg, "is full after") {
			t.Errorf("%d shard(s): error %q does not say what did not fit and how far it got", shards, msg)
		}
	}
}

// TestFailedShardClosesItsSiblings: under the range partitioner's default
// universe the top shard owns nearly all of keys 0..99999 and cannot hold
// them, while shards 0 and 1 build and preload fine. New must fail and stop
// the two healthy shards' tuners — their adapter goroutines are the leak a
// forgotten Close would leave behind.
func TestFailedShardClosesItsSiblings(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Options{
		Shards: 3, Partitioner: shard.KindRange, Workers: 2, AutoTune: true,
		Preload: 100000, HeapWords: 1 << 16,
	})
	if err == nil {
		s.Close() //nolint:errcheck // already failing
		t.Fatal("New succeeded")
	}
	if !strings.Contains(err.Error(), "shard 2") {
		t.Errorf("error %q does not name the shard that overflowed", err)
	}
	waitUntil(t, 5*time.Second, "the healthy shards' goroutines to stop", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestParallelConstructionIsDeterministic: shards are built and preloaded
// concurrently, and two servers built from the same Options must still end
// up with the same bytes in every shard's heap and the same boot
// configuration on every shard.
func TestParallelConstructionIsDeterministic(t *testing.T) {
	for _, kind := range []string{shard.KindHash, shard.KindRange} {
		opts := Options{Shards: 4, Partitioner: kind, Workers: 2, Seed: 42, Preload: 8192, HeapWords: 1 << 17}
		a, b := newTestServer(t, opts), newTestServer(t, opts)
		for i := 0; i < opts.Shards; i++ {
			sa, sb := a.ShardSystem(i), b.ShardSystem(i)
			if da, db := sa.Heap().Digest(), sb.Heap().Digest(); da != db {
				t.Errorf("%s: shard %d heap digests differ: %#x vs %#x", kind, i, da, db)
			}
			if ca, cb := sa.CurrentConfig(), sb.CurrentConfig(); ca != cb {
				t.Errorf("%s: shard %d booted in %v and in %v", kind, i, ca, cb)
			}
		}
		if got, want := a.ShardSystem(0).CurrentConfig().String(), "HTM:1t GiveUp-8"; got != want {
			// The reference configuration at seed 42 with two workers: what
			// every kv shard booted in before training moved out of Open.
			t.Errorf("%s: shard 0 booted in %q, want %q", kind, got, want)
		}
	}
}
