package serve

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/shard"
)

// BenchSubmit is the body of internal/bench's Serve/submit/* rows: one
// operation per iteration through submit/submitCross, in process with no
// HTTP or JSON, from a single caller against the two-shard, two-worker,
// hash-partitioned server the repo benchmark's kv workloads run against.
// kind is "get", "put" or "mput4x2" (four keys, two on each shard, so every
// iteration runs the cross-shard commit).
func BenchSubmit(b *testing.B, kind string) {
	const keys = 4096
	b.ReportAllocs()
	s, err := New(Options{
		Shards: 2, Partitioner: shard.KindHash, Workers: 2, Seed: 42,
		Preload: keys, HeapWords: 1 << 18,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // the server is being discarded
	var byShard [2][]uint64
	for k := uint64(0); k < keys; k++ {
		o := s.part().Owner(k)
		byShard[o] = append(byShard[o], k)
	}
	issue := func(i int) (response, int) {
		switch kind {
		case "get":
			return s.submitRouted(&request{op: opGet, key: uint64(i % keys)})
		case "put":
			return s.submitRouted(&request{op: opPut, key: uint64(i % keys), val: uint64(i)})
		case "mput4x2":
			a, c := byShard[0], byShard[1]
			return s.submitCross(&request{op: opMPut,
				keys: []uint64{a[i%len(a)], a[(i+1)%len(a)], c[i%len(c)], c[(i+1)%len(c)]},
				vals: []uint64{1, 2, 3, 4}})
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
