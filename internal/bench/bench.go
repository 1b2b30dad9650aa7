// Package bench hosts the micro-benchmark bodies shared by the `go test
// -bench` suite (bench_test.go at the repository root) and the
// `proteusbench bench` regression recorder. Keeping the bodies in a normal
// package lets the recorder run the exact same code via testing.Benchmark
// and persist the results as a BENCH_<n>.json record, so every perf PR can
// prove its before/after numbers against the same workloads the test suite
// exercises (see docs/performance.md).
package bench

import (
	"fmt"
	"sync"
	"testing"

	proteustm "repro"
	"repro/internal/config"
	"repro/internal/htm"
	"repro/internal/polytm"
	"repro/internal/serve"
	"repro/internal/stm"
	"repro/internal/tm"
)

// AlgorithmNames lists the TM backends covered by the micro suite, in the
// order the sub-benchmarks run.
var AlgorithmNames = []string{"tl2", "tiny", "norec", "swiss", "htm", "gl"}

// NewAlgorithm returns a fresh instance of the named TM backend. It panics
// on an unknown name (the suite is a fixed registry, not user input).
func NewAlgorithm(name string) tm.Algorithm {
	switch name {
	case "tl2":
		return stm.TL2{}
	case "tiny":
		return stm.TinySTM{}
	case "norec":
		return stm.NOrec{}
	case "swiss":
		return stm.SwissTM{}
	case "htm":
		return &htm.HTM{CM: htm.NewCM(5, htm.PolicyDecrease)}
	case "gl":
		return &stm.GlobalLock{}
	}
	panic(fmt.Sprintf("bench: unknown algorithm %q", name))
}

// CounterTx runs the counter micro-workload on one algorithm at the given
// thread count: each transaction reads one of 1024 uncontended slots and
// increments it. This is the read-dominated short-transaction shape that
// stresses per-access dispatch and the write-set-miss path.
func CounterTx(b *testing.B, alg tm.Algorithm, threads int) {
	b.ReportAllocs()
	h := tm.NewHeap(1<<16, threads)
	base := h.MustAlloc(1024)
	stats := make([]tm.Stats, threads)
	var wg sync.WaitGroup
	per := b.N/threads + 1
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := tm.NewCtx(id, h)
			for i := 0; i < per; i++ {
				slot := tm.Addr(c.Rand() % 1024)
				tm.Run(alg, c, func(tx tm.Txn) {
					v := tx.Load(base + slot)
					tx.Store(base+slot, v+1)
				})
			}
			stats[id] = c.Stats
		}(w)
	}
	wg.Wait()
	reportAbortShare(b, stats)
}

// abortShareUnit names the extra metric the TM rows report: aborted attempts
// over all attempts, the `abort_share` of a record's row.
const abortShareUnit = "abort-share"

func reportAbortShare(b *testing.B, stats []tm.Stats) {
	var sum tm.Stats
	for _, st := range stats {
		sum.Add(st)
	}
	b.ReportMetric(float64(sum.Aborts)/float64(max(sum.Aborts+sum.Commits, 1)), abortShareUnit)
}

// writeHeavySpan is the number of distinct words each write-heavy
// transaction touches. It deliberately exceeds the write set's
// linear-to-indexed threshold so the indexed lookup path is on the hot path.
const writeHeavySpan = 24

// WriteHeavyTx runs the write-heavy micro-workload: each transaction stores
// writeHeavySpan words spread over distinct stripes and reads every one of
// them back, so both the write-set insert path and the write-set *hit*
// lookup path are exercised well past the linear-scan regime.
func WriteHeavyTx(b *testing.B, alg tm.Algorithm, threads int) {
	b.ReportAllocs()
	const region = 1 << 14
	h := tm.NewHeap(1<<18, threads)
	base := h.MustAlloc(region)
	stats := make([]tm.Stats, threads)
	var wg sync.WaitGroup
	per := b.N/threads + 1
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := tm.NewCtx(id, h)
			stride := tm.Addr(1 << tm.StripeShift) // one word per stripe
			for i := 0; i < per; i++ {
				start := tm.Addr(c.Rand() % (region - writeHeavySpan*uint64(stride)))
				tm.Run(alg, c, func(tx tm.Txn) {
					var sum uint64
					for j := tm.Addr(0); j < writeHeavySpan; j++ {
						a := base + start + j*stride
						tx.Store(a, uint64(j))
						sum += tx.Load(a) // served from the write set
					}
					tx.Store(base+start, sum)
				})
			}
			stats[id] = c.Stats
		}(w)
	}
	wg.Wait()
	reportAbortShare(b, stats)
}

// PublicAPI exercises the root package's Atomic path end to end (Open →
// Worker → Atomic) on a single worker. Steady state must not allocate.
func PublicAPI(b *testing.B) {
	b.ReportAllocs()
	sys, err := proteustm.Open(proteustm.WithWorkers(1), proteustm.WithHeapWords(1<<12))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	w, err := sys.Worker(0)
	if err != nil {
		b.Fatal(err)
	}
	a := sys.MustAlloc(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Atomic(func(tx proteustm.Txn) {
			tx.Store(a, tx.Load(a)+1)
		})
	}
}

// SystemOpen measures one proteustm.Open (and Close) of a pinned System —
// default 4 Mi-word heap, no tuner — with the given number of worker slots:
// what every shard, every split and every benchmark System pays to boot.
func SystemOpen(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := proteustm.Open(proteustm.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		sys.Close() //nolint:errcheck // pinned: nothing to stop
	}
}

// DispatchPolyTM runs the counter workload through PolyTM's gated dispatch
// at 4 threads (pair with CounterTx on the bare algorithm for the Table-4
// overhead delta).
func DispatchPolyTM(b *testing.B) {
	b.ReportAllocs()
	const threads = 4
	pool := polytm.New(1<<16, threads, config.Config{Alg: config.TL2, Threads: threads})
	base := pool.Heap().MustAlloc(1024)
	var wg sync.WaitGroup
	per := b.N/threads + 1
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := pool.Ctx(id)
			for i := 0; i < per; i++ {
				slot := tm.Addr(c.Rand() % 1024)
				pool.Atomic(id, func(tx tm.Txn) {
					v := tx.Load(base + slot)
					tx.Store(base+slot, v+1)
				})
			}
		}(w)
	}
	wg.Wait()
}

// ThreadGateFA measures one gated single-threaded store transaction through
// PolyTM (the fetch-and-add side of the Algorithm-1 ablation).
func ThreadGateFA(b *testing.B) {
	b.ReportAllocs()
	pool := polytm.New(1<<12, 1, config.Config{Alg: config.TL2, Threads: 1})
	base := pool.Heap().MustAlloc(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Atomic(0, func(tx tm.Txn) { tx.Store(base, 1) })
	}
}

// Case is one named benchmark of the regression suite. Names mirror the
// `go test -bench` hierarchy (e.g. "Algorithms/tl2/4t") so records can be
// compared against test output with benchstat.
type Case struct {
	Name string
	Fn   func(b *testing.B)
}

// Suite returns the regression suite recorded by `proteusbench bench`: the
// counter workload for every backend at 1, 2, 4 and 8 threads (on this
// project's two-core box 2t is real parallelism, 4t and 8t oversubscription),
// the write-heavy workload at 1 and 4 threads, the PolyTM dispatch pair, the
// public API path, the tuner's decision path
// (surrogate query, one optimization, model selection), start-up (one pinned
// System at 2 and 8 workers; one two-shard server, empty and preloaded), and
// the serve layer's get, put and four-key two-shard mput — through the
// in-process submit path (which also has the two-shard mget and range scan)
// and through ServeHTTP, so the difference is the HTTP shell's cost with
// nothing contending for it — and the kv-multi mix from two callers at once,
// the one row in which operations wait for each other.
func Suite() []Case {
	var cases []Case
	for _, name := range AlgorithmNames {
		name := name
		for _, threads := range []int{1, 2, 4, 8} {
			threads := threads
			cases = append(cases, Case{
				Name: fmt.Sprintf("Algorithms/%s/%dt", name, threads),
				Fn:   func(b *testing.B) { CounterTx(b, NewAlgorithm(name), threads) },
			})
		}
		for _, threads := range []int{1, 4} {
			threads := threads
			cases = append(cases, Case{
				Name: fmt.Sprintf("AlgorithmsWriteHeavy/%s/%dt", name, threads),
				Fn:   func(b *testing.B) { WriteHeavyTx(b, NewAlgorithm(name), threads) },
			})
		}
	}
	cases = append(cases,
		Case{Name: "PolyTMDispatch/bare", Fn: func(b *testing.B) { CounterTx(b, NewAlgorithm("tl2"), 4) }},
		Case{Name: "PolyTMDispatch/polytm", Fn: DispatchPolyTM},
		Case{Name: "PublicAPI", Fn: PublicAPI},
		Case{Name: "Tuner/PredictDist", Fn: TunerPredictDist},
		Case{Name: "Tuner/Optimize", Fn: TunerOptimize},
		Case{Name: "Tuner/SelectModel", Fn: TunerSelectModel},
	)
	for _, workers := range []int{2, 8} {
		cases = append(cases, Case{
			Name: fmt.Sprintf("System/Open/%dw", workers),
			Fn:   func(b *testing.B) { SystemOpen(b, workers) },
		})
	}
	cases = append(cases,
		Case{Name: "Serve/New/empty", Fn: func(b *testing.B) { serve.BenchNew(b, 0) }},
		Case{Name: "Serve/New/preload131072", Fn: func(b *testing.B) { serve.BenchNew(b, 131072) }},
	)
	for _, entry := range []struct {
		name  string
		body  func(*testing.B, string)
		kinds []string
	}{
		{"submit", serve.BenchSubmit, []string{"get", "put", "mput4x2", "mget4x2", "range256x2"}},
		{"http", serve.BenchHTTP, []string{"get", "put", "mput4x2"}},
	} {
		for _, kind := range entry.kinds {
			cases = append(cases, Case{
				Name: "Serve/" + entry.name + "/" + kind,
				Fn:   func(b *testing.B) { entry.body(b, kind) },
			})
		}
	}
	cases = append(cases, Case{Name: "Serve/contended/kvmix", Fn: serve.BenchContended})
	return cases
}
