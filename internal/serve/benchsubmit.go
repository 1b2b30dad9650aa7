package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/shard"
	"repro/internal/workloads"
)

// benchKeys is how many keys the Serve/submit and Serve/http rows' server
// preloads; the rows cycle through them.
const benchKeys = 4096

// benchServer is the server the Serve/* rows run against: the two-shard,
// two-worker, hash-partitioned, pinned server of the repo benchmark's kv
// workloads, with 4096 preloaded keys in small heaps.
func benchServer(b *testing.B) (*Server, [2][]uint64) {
	s, err := New(Options{
		Shards: 2, Partitioner: shard.KindHash, Workers: 2, Seed: 42,
		Preload: benchKeys, HeapWords: 1 << 18,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() }) //nolint:errcheck // the server is being discarded
	var byShard [2][]uint64
	for k := uint64(0); k < benchKeys; k++ {
		o := s.part().Owner(k)
		byShard[o] = append(byShard[o], k)
	}
	return s, byShard
}

// BenchSubmit is the body of internal/bench's Serve/submit/* rows: one
// operation per iteration through submitRouted, in process with no
// HTTP or JSON, from a single caller against the two-shard, two-worker,
// hash-partitioned server the repo benchmark's kv workloads run against.
// kind is "get", "put", "mput4x2" or "mget4x2" (four keys, two on each shard,
// so every iteration runs the cross-shard commit) or "range256x2" (a scan of
// 256 consecutive keys, which hashing spreads over both shards).
func BenchSubmit(b *testing.B, kind string) {
	b.ReportAllocs()
	s, byShard := benchServer(b)
	fourKeys := func(i int) []uint64 {
		a, c := byShard[0], byShard[1]
		return []uint64{a[i%len(a)], a[(i+1)%len(a)], c[i%len(c)], c[(i+1)%len(c)]}
	}
	issue := func(i int) (response, int) {
		switch kind {
		case "get":
			return s.submitRouted(&request{op: opGet, key: uint64(i % benchKeys)})
		case "put":
			return s.submitRouted(&request{op: opPut, key: uint64(i % benchKeys), val: uint64(i)})
		case "mput4x2":
			return s.submitRouted(&request{op: opMPut, keys: fourKeys(i), vals: []uint64{1, 2, 3, 4}})
		case "mget4x2":
			return s.submitRouted(&request{op: opMGet, keys: fourKeys(i)})
		case "range256x2":
			lo := uint64(i % (benchKeys - 256))
			return s.submitRouted(&request{op: opRange, lo: lo, hi: lo + 255})
		}
		panic(fmt.Sprintf("serve: unknown BenchSubmit kind %q", kind))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp, code := issue(i); code != http.StatusOK {
			b.Fatalf("%s %d = HTTP %d %+v", kind, i, code, resp)
		}
	}
}

// BenchContended is the body of the Serve/contended/kvmix row: the repo
// benchmark's kv-multi mix (get 30 / put 10 / four-key two-shard mput 25 /
// four-key mget 20 / range of 256 keys 15) issued through the submit path by
// two callers at once, each writing its own half of the keys — the one
// Serve/* row in which operations meet on a slot token or a fence, so ns/op
// (wall time over both callers' operations) shows what waiting costs.
func BenchContended(b *testing.B) {
	b.ReportAllocs()
	s, byShard := benchServer(b)
	const callers = 2
	var failed atomic.Uint64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := workloads.NewRand(uint64(c) + 1).Intn // the stream is fixed per caller
			own := func(sh int) uint64 {                  // a key of shard sh in this caller's half
				keys := byShard[sh]
				return keys[next(len(keys)/callers)*callers+c]
			}
			for i := c; i < b.N; i += callers {
				var code int
				switch roll := next(100); {
				case roll < 30:
					_, code = s.submitRouted(&request{op: opGet, key: uint64(next(benchKeys))})
				case roll < 40:
					_, code = s.submitRouted(&request{op: opPut, key: own(next(2)), val: uint64(i)})
				case roll < 65:
					_, code = s.submitRouted(&request{op: opMPut,
						keys: []uint64{own(0), own(0), own(1), own(1)}, vals: []uint64{1, 2, 3, 4}})
				case roll < 85:
					_, code = s.submitRouted(&request{op: opMGet, keys: []uint64{
						uint64(next(benchKeys)), uint64(next(benchKeys)), uint64(next(benchKeys)), uint64(next(benchKeys))}})
				default:
					lo := uint64(next(benchKeys - 256))
					_, code = s.submitRouted(&request{op: opRange, lo: lo, hi: lo + 255})
				}
				if code != http.StatusOK {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		b.Fatalf("%d of %d operations failed", n, b.N)
	}
}

// discardReply is the cheapest http.ResponseWriter: it keeps the status and
// one reusable header map and drops the body, so a Serve/http row measures
// the handler (mux, query parsing, JSON encoding), not a recorder.
type discardReply struct {
	header http.Header
	code   int
}

func (d *discardReply) Header() http.Header         { return d.header }
func (d *discardReply) WriteHeader(code int)        { d.code = code }
func (d *discardReply) Write(p []byte) (int, error) { return len(p), nil }

// BenchHTTP is the body of the Serve/http/* rows: the operations of
// BenchSubmit, against the same server and from the same single caller, but
// entered through ServeHTTP with a parsed request in hand — so (http −
// submit) is what the HTTP shell costs above the submit path when nothing
// contends for it: mux, query parsing, strconv and the JSON reply, with no
// socket and no net/http server around them. Requests are built before the
// clock starts, one per key.
func BenchHTTP(b *testing.B, kind string) {
	b.ReportAllocs()
	s, byShard := benchServer(b)
	reqs := make([]*http.Request, benchKeys)
	for i := range reqs {
		var url string
		switch kind {
		case "get":
			url = fmt.Sprintf("/kv/get?key=%d", i)
		case "put":
			url = fmt.Sprintf("/kv/put?key=%d&val=%d", i, i+1)
		case "mput4x2":
			a, c := byShard[0], byShard[1]
			url = fmt.Sprintf("/kv/mput?keys=%d,%d,%d,%d&vals=1,2,3,4",
				a[i%len(a)], a[(i+1)%len(a)], c[i%len(c)], c[(i+1)%len(c)])
		default:
			panic(fmt.Sprintf("serve: unknown BenchHTTP kind %q", kind))
		}
		var err error
		if reqs[i], err = http.NewRequest(http.MethodGet, url, nil); err != nil {
			b.Fatal(err)
		}
	}
	w := &discardReply{header: make(http.Header)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, reqs[i%benchKeys])
		if w.code != http.StatusOK {
			b.Fatalf("%s %d = HTTP %d", kind, i, w.code)
		}
	}
}

// BenchNew is the body of the Serve/New/* rows: one New (and Close) per
// iteration of the repo benchmark's kv server — two shards, two workers,
// default 4 Mi-word heaps, pinned — with the given number of preloaded keys.
func BenchNew(b *testing.B, preload int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(Options{Shards: 2, Partitioner: shard.KindHash, Workers: 2, Seed: 42, Preload: preload})
		if err != nil {
			b.Fatal(err)
		}
		s.Close() //nolint:errcheck // the server is being discarded
	}
}
