// Command proteusd is the ProteusTM data service: a long-running daemon
// exposing one or more transactional heaps as a concurrent key-value /
// deque store over HTTP+JSON, with one RecTM adapter per shard retuning
// that shard's TM backend, parallelism degree and HTM contention
// management underneath the traffic. Operators watch the adaptation live
// on /statusz.
//
// Usage:
//
//	proteusd [--addr 127.0.0.1:7411] [--shards 1] [--partitioner hash]
//	    [--key-universe 16384] [--workers 8] [--queue 1024]
//	    [--autotune=true] [--sample-period 100ms] [--seed 42]
//	    [--heap-words 4194304] [--preload 8192]
//	    [--slo-p99 0] [--deadline 0] [--fault ""]
//	    [--fence-deadline 1s] [--breaker-cooldown 1s]
//	    [--autosplit 0] [--autosplit-max 8] [--autosplit-interval 2s]
//	    [--automerge 0] [--automerge-min 0] [--spare-grace 30s]
//
// --slo-p99 sets a tail-latency target: the per-shard tuners switch from
// raw throughput to throughput-under-SLO (configurations that blow the
// p99 budget are penalized), and admission sheds load with 429 once
// queue-wait p99 crosses the budget. --deadline gives every operation a
// default queueing budget: an op still queued past it (or whose client
// hung up) is dropped with 504 instead of executed; clients can tighten
// it per request with ?deadline_ms=. Both appear in /statusz
// (server.slo_p99_ms, server.deadline_ms, ops.shed_latency,
// ops.shed_deadline).
//
// With --shards=N the key space is partitioned across N independent
// ProteusTM systems; single-key operations route to the owning shard and
// multi-key operations (range, mput, mget) commit with the cross-shard
// two-phase protocol (see docs/sharding.md). --partitioner selects the
// placement policy: "hash" (consistent hashing, uniform placement) or
// "range" (order-preserving boundary spans over --key-universe, so
// /kv/range scans fence only the shards whose spans they intersect).
// On SIGINT/SIGTERM the daemon drains each shard in turn before exiting.
//
// --fault arms the deterministic fault-injection substrate with a spec
// like "coord-crash@after=3;every=5;count=6,shard-stall:1@count=1;stall=1200ms"
// (see internal/fault): injected coordinator crashes strand fences that
// the per-shard failure detector recovers within --fence-deadline, and
// stalled shards trip a circuit breaker that sheds with 503+Retry-After
// until --breaker-cooldown elapses and progress resumes. Recovery
// counters appear under /statusz ops.* and fault fire counts under
// ops.faults.
//
// A cross-shard commit publishes one signature bit per key of its batch in
// each participant's fence table, so local ops that don't intersect an
// in-flight 2PC's footprint proceed; range scans and migrations hold the
// whole shard. Observables: ops.fence_keys_held, ops.fenced_requeues,
// ops.cross_aborts.
//
// A range-partitioned daemon resharding live: POST /admin/reshard plans a
// SplitHeaviest step from the live per-shard ops_routed counters, grows
// the fleet by one shard, migrates the moved span under the donor's
// fence, and flips the placement epoch — no restart, no dropped
// requests (operations routed under the old placement bounce off the
// donor's placement-epoch word and re-route). --autosplit=S arms the
// same step as a background trigger: when the hottest shard carries more
// than fraction S of routed operations, the daemon splits it, up to
// --autosplit-max shards, checking every --autosplit-interval.
// Observables: server.partitioner_epoch, server.resharding,
// server.span_starts/span_owners, ops.reshards, ops.keys_migrated,
// ops.moved_bounces. The deque stays pinned to shard 0 and its reserved
// key window never migrates.
//
// The fleet shrinks the same way it grows: POST /admin/reshard with body
// {"plan":"merge"} plans a MergeColdest step — the top shard, when it is
// the coldest, hands its span to the adjacent shard under the same
// fenced pipeline, the placement flips one shard smaller, and the donor
// is drained and retired (its workers and tuner stop). --automerge=S
// arms the symmetric background trigger: when the top shard's share of
// the last interval's routed operations falls below S (or the fleet goes
// idle), the daemon merges it away, down to --automerge-min shards,
// checking every --autosplit-interval. Spare shards left by rolled-back
// migrations are reaped after --spare-grace. Observables: ops.merges,
// ops.shards_retired, server.spare_shards, ops.range_conservative.
//
// Endpoints (all parameters are uint64 query parameters; keys/vals are
// comma-separated lists):
//
//	GET  /healthz                      readiness probe (503 while a breaker is open or a fence is stale)
//	GET  /statusz                      per-shard tuner state, fleet rollup, latency split
//	POST /admin/reshard                migrate one placement step live: body {"plan":"split"} (default) or {"plan":"merge"}
//	GET  /kv/get?key=K                 point read
//	POST /kv/put?key=K&val=V           insert or update
//	POST /kv/del?key=K                 delete
//	POST /kv/cas?key=K&old=O&new=N     compare-and-swap
//	GET  /kv/range?lo=L&hi=H           cross-shard range count/sum (span clamped)
//	POST /kv/mput?keys=...&vals=...    atomic cross-shard batch put
//	GET  /kv/mget?keys=...             atomic cross-shard batch read
//	POST /list/lpush?val=V  /list/rpush?val=V
//	POST /list/lpop  /list/rpop
//	GET  /list/len
//
// Drive it with `proteusbench loadgen` (add --skew to diverge per-shard
// traffic) and see docs/serving.md and docs/sharding.md for the operator
// guides.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "listen address")
	shards := flag.Int("shards", 1, "key-space shards, each an independent ProteusTM system with its own tuner")
	partitioner := flag.String("partitioner", "hash", "placement policy: hash (uniform) or range (order-preserving, scan-localizing)")
	keyUniverse := flag.Uint64("key-universe", 16384, "working key range the range partitioner pre-splits evenly (ignored by hash)")
	workers := flag.Int("workers", 8, "worker slots per shard (ceiling of the tuned parallelism degree)")
	queue := flag.Int("queue", 1024, "admission queue depth per shard (overflow returns HTTP 429)")
	autotune := flag.Bool("autotune", true, "run one RecTM adapter thread per shard over live traffic")
	samplePeriod := flag.Duration("sample-period", 100*time.Millisecond, "monitor KPI sampling period")
	seed := flag.Uint64("seed", 42, "tuning machinery seed")
	heapWords := flag.Int("heap-words", 1<<22, "transactional heap size per shard in 64-bit words")
	preload := flag.Int("preload", 8192, "pre-populate keys 0..n-1 before serving")
	maxScan := flag.Uint64("max-scan-span", 4096, "clamp on /kv/range spans")
	sloP99 := flag.Duration("slo-p99", 0, "p99 latency target: tuners optimize throughput-under-SLO and admission sheds on queue-wait p99 (0 = plain throughput)")
	deadline := flag.Duration("deadline", 0, "default per-op queueing budget; expired ops are dropped with 504 (0 = none; ?deadline_ms= tightens per request)")
	faultSpec := flag.String("fault", "", "deterministic fault-injection spec, e.g. coord-crash@after=3;every=5;count=6 (see internal/fault; empty = no injection)")
	fenceDeadline := flag.Duration("fence-deadline", 0, "age past which a heartbeat-stale cross-shard fence is declared orphaned and recovered (0 = 1s default)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "minimum time a stalled shard's circuit breaker sheds before admitting probes (0 = 1s default)")
	autosplit := flag.Float64("autosplit", 0, "hottest-shard ops_routed share above which the daemon splits it live (range partitioner only; 0 = manual /admin/reshard only)")
	autosplitMax := flag.Int("autosplit-max", 0, "shard-count ceiling for --autosplit (0 = 8 default)")
	autosplitInterval := flag.Duration("autosplit-interval", 0, "how often --autosplit/--automerge check the load signal (0 = 2s default)")
	automerge := flag.Float64("automerge", 0, "top-shard share of per-interval routed ops below which the daemon merges it away live (range partitioner only; 0 = manual /admin/reshard only)")
	automergeMin := flag.Int("automerge-min", 0, "shard-count floor for --automerge (0 = the boot shard count)")
	spareGrace := flag.Duration("spare-grace", 0, "idle time after which a spare shard left by a rolled-back migration is retired (0 = 30s default)")
	flag.Parse()

	logger := log.New(os.Stderr, "proteusd: ", log.LstdFlags|log.Lmicroseconds)
	var injector *fault.Injector
	if *faultSpec != "" {
		var err error
		injector, err = fault.Parse(*faultSpec, *seed)
		if err != nil {
			logger.Fatalf("--fault: %v", err)
		}
		logger.Printf("fault injection armed: %s", injector)
	}
	srv, err := serve.New(serve.Options{
		Shards:             *shards,
		Partitioner:        *partitioner,
		KeyUniverse:        *keyUniverse,
		Workers:            *workers,
		QueueDepth:         *queue,
		AutoTune:           *autotune,
		SamplePeriod:       *samplePeriod,
		Seed:               *seed,
		HeapWords:          *heapWords,
		Preload:            *preload,
		MaxScanSpan:        *maxScan,
		SLOP99:             *sloP99,
		Deadline:           *deadline,
		Fault:              injector,
		FenceDeadline:      *fenceDeadline,
		BreakerCooldown:    *breakerCooldown,
		AutosplitShare:     *autosplit,
		AutosplitMaxShards: *autosplitMax,
		AutosplitInterval:  *autosplitInterval,
		AutomergeShare:     *automerge,
		AutomergeMinShards: *automergeMin,
		SpareGrace:         *spareGrace,
		Logf:               logger.Printf,
	})
	if err != nil {
		logger.Fatalf("startup: %v", err)
	}
	logger.Printf("serving on http://%s (shards=%d partitioner=%s workers=%d queue=%d autotune=%v preload=%d, initial config %s)",
		*addr, srv.Shards(), *partitioner, *workers, *queue, *autotune, *preload, srv.System().CurrentConfig())

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Printf("received %s, draining %d shard(s)", sig, srv.Shards())
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("listen: %v", err)
			srv.Close() //nolint:errcheck // already failing
			os.Exit(1)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		logger.Printf("close: %v", err)
		os.Exit(1)
	}
	status := srv.StatusSnapshot()
	perShard := make([]string, len(status.Shards))
	for i, sh := range status.Shards {
		perShard[i] = fmt.Sprintf("shard %d: %s (%d phases)", sh.Index, sh.Config, sh.Phases)
	}
	fmt.Fprintf(os.Stderr, "proteusd: clean shutdown: %d ops served (%d cross-shard), %d commits, %d optimization phases; %s\n",
		status.Ops.Total, status.Ops.CrossOps, status.TM.Commits, status.Config.Phases, strings.Join(perShard, "; "))
}
