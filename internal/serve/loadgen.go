package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	shardpkg "repro/internal/shard"
	"repro/internal/workloads"
)

// LoadPhase is one segment of a loadgen session: a named operation mix
// held for a duration.
type LoadPhase struct {
	// Mix is the operation mix (one of workloads.ServiceMixByName).
	Mix workloads.ServiceOpMix
	// Duration is how long the phase lasts.
	Duration time.Duration
}

// ParsePhases parses a phase spec like "read-heavy:5s,write-heavy:5s,scan:3s"
// into phases; each element is mix-name:duration.
func ParsePhases(spec string) ([]LoadPhase, error) {
	var out []LoadPhase
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, durStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("loadgen: phase %q: want mix:duration", part)
		}
		mix, err := workloads.ServiceMixByName(name)
		if err != nil {
			return nil, err
		}
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return nil, fmt.Errorf("loadgen: phase %q: %w", part, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("loadgen: phase %q: duration must be positive", part)
		}
		out = append(out, LoadPhase{Mix: mix, Duration: d})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: empty phase spec")
	}
	return out, nil
}

// LoadgenOptions configures a loadgen session against a running proteusd.
type LoadgenOptions struct {
	// BaseURL is the daemon address, e.g. "http://127.0.0.1:7411".
	BaseURL string
	// Conns is the number of concurrent client connections (default 8).
	Conns int
	// Rate is the total offered load in operations per second across all
	// connections, delivered open-loop: operations are scheduled on a
	// clock, and scheduling slots that find every connection busy are
	// counted as shed rather than silently deferred. Rate 0 runs closed
	// loop: every connection issues back-to-back requests, measuring the
	// service's capacity under the mix (the mode that makes phase shifts
	// visible to the daemon's KPI monitor).
	Rate float64
	// Phases is the traffic schedule (required; see ParsePhases).
	Phases []LoadPhase
	// KeyRange bounds the generated keys (default 16384).
	KeyRange uint64
	// Span is the width of range scans (default 256).
	Span uint64
	// Skew in [0,1] is the probability an operation is drawn from the
	// shard-correlated plan instead of the phase mix: writes (put/del/cas
	// on a small hot set, plus occasional cross-shard mput batches) are
	// steered at keys owned by the lower half of the daemon's shards and
	// reads at keys owned by the upper half, so per-shard traffic
	// profiles diverge and the per-shard tuners install different
	// configurations. Ignored unless the daemon reports more than one
	// shard; the client computes ownership with the same consistent-hash
	// ring the server routes with.
	Skew float64
	// MPutFrac in [0,1] is the probability an operation is a cross-shard
	// 4-key /kv/mput batch regardless of the phase mix. The mputs run the
	// full two-phase fence protocol on a sharded daemon, so raising this
	// exercises keyed fences: ops.cross_ops, ops.cross_aborts and the
	// ops.fenced_requeues of local operations whose keys a batch covers.
	MPutFrac float64
	// Seed drives the per-connection operation streams.
	Seed uint64
	// Deadline, when positive, is attached to every request as its
	// deadline_ms budget: the daemon drops the operation with 504 if it
	// is still queued when the budget expires. The client-side request
	// context allows 4x the budget, so the server's verdict — not a
	// client-side race — decides each operation's outcome; the context
	// only catches a truly hung daemon (counted as Timeouts).
	Deadline time.Duration
	// SLOP99, when positive, is the latency target SLO attainment is
	// reported against (PhaseReport.SLOAttainment): the fraction of
	// attempted operations that completed within it, with rejections,
	// expirations and timeouts counted as misses.
	SLOP99 time.Duration
	// Logf, when set, receives per-phase progress lines.
	Logf func(format string, args ...any)
}

// skewPlan precomputes the shard-correlated key pools of a skewed
// session: every generated key's owner is known client-side because
// partitioner construction is deterministic in the parameters /statusz
// reports (kind, shard count, key universe).
type skewPlan struct {
	// epoch is the daemon's partitioner_epoch the plan was built from. A
	// live reshard moves the epoch, and a plan built under an older one
	// steers keys at shards that no longer own them — the status sampler
	// detects the change and rebuilds (LoadReport.Replans counts these).
	epoch  uint64
	shards int
	// pools[s] holds the keys in [0, KeyRange) owned by shard s; hot[s]
	// is a small prefix of them that write traffic hammers to create
	// per-shard contention.
	pools [][]uint64
	hot   [][]uint64
}

// buildSkewPlan collects per-shard key pools from the low end of
// [0, keyRange). The pools are capped — the plan only needs a hot set
// plus enough keys to spread reads over, not a materialized partition of
// the whole (possibly enormous) key range — and the scan stops as soon
// as every pool is full, so plan construction is O(shards · poolCap)
// with a balanced partitioner regardless of keyRange.
func buildSkewPlan(st *ServerStatus, keyRange uint64) *skewPlan {
	const poolCap = 4096
	shards := st.Shards
	var part shardpkg.Partitioner
	var err error
	if len(st.SpanStarts) > 0 {
		// A resharded daemon's placement is not derivable from the shard
		// count alone — rebuild the exact span table it routes with.
		part, err = shardpkg.NewRangeFromSpans(st.SpanStarts, st.SpanOwners, st.KeyUniverse)
	} else {
		part, err = shardpkg.NewPartitioner(st.Partitioner, shards, st.KeyUniverse)
	}
	if err != nil {
		// An unknown kind (or a malformed span table) means a newer
		// daemon; fall back to the hash ring, which every daemon speaks.
		part = shardpkg.New(shards)
	}
	// Size the plan from the partitioner actually built, not st.Shards:
	// the daemon counts fleet entries, which disagrees with the span
	// table around a live merge (spares linger above the placement's top
	// shard, and the status snapshot can catch the fleet truncated one
	// ahead of the placement it reports). Keying everything to the span
	// table keeps pools[Owner(k)] in range whichever way they diverge.
	shards = part.Shards()
	plan := &skewPlan{epoch: st.PartitionerEpoch, shards: shards, pools: make([][]uint64, shards), hot: make([][]uint64, shards)}
	full := 0
	// The scan bound guards against a pathologically unbalanced ring:
	// past it, a still-unfilled pool just stays smaller.
	scanMax := keyRange
	if limit := uint64(shards) * poolCap * 64; scanMax > limit {
		scanMax = limit
	}
	for k := uint64(0); k < scanMax && full < shards; k++ {
		o := part.Owner(k)
		if len(plan.pools[o]) < poolCap {
			plan.pools[o] = append(plan.pools[o], k)
			if len(plan.pools[o]) == poolCap {
				full++
			}
		}
	}
	for s := range plan.pools {
		n := len(plan.pools[s])
		if n == 0 {
			continue
		}
		hot := 64
		if hot > n {
			hot = n
		}
		plan.hot[s] = plan.pools[s][:hot]
	}
	return plan
}

// PhaseReport summarizes one phase of a loadgen session.
type PhaseReport struct {
	Name        string  `json:"name"`
	DurationSec float64 `json:"duration_sec"`
	// Ops counts completed operations (HTTP 200); Rejected counts
	// admission-queue rejections (HTTP 429); Errors counts transport
	// failures and 5xx responses; Shed counts open-loop scheduling slots
	// dropped because every connection was busy.
	Ops        uint64  `json:"ops"`
	Rejected   uint64  `json:"rejected"`
	Errors     uint64  `json:"errors"`
	Shed       uint64  `json:"shed,omitempty"`
	Throughput float64 `json:"throughput"`
	// Expired counts server-side deadline drops (HTTP 504); Timeouts
	// counts client-side context expirations (the request was abandoned
	// before any response arrived). Both stay zero unless a deadline was
	// set.
	Expired  uint64 `json:"expired,omitempty"`
	Timeouts uint64 `json:"timeouts,omitempty"`
	// Retried503 counts 503 responses that carried a Retry-After header
	// (circuit-breaker shedding or fence recovery in progress) and were
	// retried after honoring it; only the final attempt's outcome lands in
	// the other counters. A 503 without the header is a hard error.
	Retried503 uint64 `json:"retried_503,omitempty"`
	// LatencyMs summarizes per-operation client-observed latency.
	LatencyMs metrics.Summary `json:"latency_ms"`
	// QueueWaitP50Ms and QueueWaitP99Ms snapshot the daemon's
	// accept-to-execution-start distribution at phase end (from
	// /statusz) — the server-side queue-pressure counterpart of the
	// client-observed LatencyMs.
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	// SLOAttainment is the fraction of attempted operations that
	// completed within the session's SLOP99 target; omitted when no
	// target was set.
	SLOAttainment float64 `json:"slo_attainment,omitempty"`
	// Reconfigurations counts daemon optimization phases that completed
	// during this phase; Config is the configuration installed when the
	// phase ended.
	Reconfigurations int    `json:"reconfigurations"`
	Config           string `json:"config"`
}

// LoadReport is the session-level JSON report `proteusbench loadgen`
// writes: per-phase and total throughput/latency plus the daemon-side
// reconfiguration events the session triggered.
type LoadReport struct {
	Target   string  `json:"target"`
	Conns    int     `json:"conns"`
	Rate     float64 `json:"rate"`
	Seed     uint64  `json:"seed"`
	KeyRange uint64  `json:"keyrange"`
	Span     uint64  `json:"span"`
	// Skew echoes the shard-correlated traffic fraction; Shards is the
	// daemon's shard count and Partitioner its placement policy (the
	// client replicates both from /statusz). ShardConfigs is the per-shard installed
	// configuration when the session ended. Because idle tuners re-
	// converge once traffic stops, the session-level divergence signal is
	// MaxDistinctShardConfigs: the largest number of distinct
	// configurations simultaneously installed on non-exploring shards at
	// any status sample during the session (DistinctShardSample is the
	// per-shard snapshot at that moment).
	Skew                    float64  `json:"skew,omitempty"`
	MPutFrac                float64  `json:"mput_frac,omitempty"`
	Shards                  int      `json:"shards"`
	Partitioner             string   `json:"partitioner,omitempty"`
	ShardConfigs            []string `json:"shard_configs"`
	MaxDistinctShardConfigs int      `json:"max_distinct_shard_configs"`
	DistinctShardSample     []string `json:"distinct_shard_sample,omitempty"`
	StartConfig             string   `json:"start_config"`
	FinalConfig             string   `json:"final_config"`
	// Replans counts client-side partitioner-replica rebuilds: the status
	// sampler saw partitioner_epoch move (a live reshard installed a new
	// placement) and rebuilt the skew plan from the fresh span table.
	Replans int `json:"replans,omitempty"`
	// DaemonCommits is the daemon's committed-transaction delta over the
	// session (from /statusz), which bounds the served throughput from
	// below even if some client requests failed.
	DaemonCommits uint64        `json:"daemon_commits"`
	Phases        []PhaseReport `json:"phases"`
	Total         PhaseReport   `json:"total"`
	// Reconfigurations lists the daemon optimization phases that ran
	// during the session, as reported by /statusz.
	Reconfigurations []ReconfigStatus `json:"reconfigurations"`
}

// connStats accumulates one connection's phase counters.
type connStats struct {
	ops, rejected, errors    uint64
	expired, timeouts, okSLO uint64
	retried503               uint64
	lat                      []float64
}

// RunLoadgen drives the phase schedule against a running daemon and
// returns the session report.
func RunLoadgen(opts LoadgenOptions) (*LoadReport, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL is required")
	}
	if len(opts.Phases) == 0 {
		return nil, fmt.Errorf("loadgen: at least one phase is required")
	}
	if opts.Conns <= 0 {
		opts.Conns = 8
	}
	if opts.KeyRange == 0 {
		opts.KeyRange = 16384
	}
	if opts.Span == 0 {
		opts.Span = 256
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	base := strings.TrimRight(opts.BaseURL, "/")
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        opts.Conns * 2,
			MaxIdleConnsPerHost: opts.Conns * 2,
		},
	}

	before, err := fetchStatus(client, base)
	if err != nil {
		return nil, fmt.Errorf("loadgen: daemon not reachable: %w", err)
	}
	report := &LoadReport{
		Target:      base,
		Conns:       opts.Conns,
		Rate:        opts.Rate,
		Seed:        opts.Seed,
		KeyRange:    opts.KeyRange,
		Span:        opts.Span,
		Skew:        opts.Skew,
		MPutFrac:    opts.MPutFrac,
		Shards:      before.Server.Shards,
		Partitioner: before.Server.Partitioner,
		StartConfig: before.Config.Current,
	}
	seenReconfigs := len(before.Reconfigurations)
	// The skew plan lives behind an atomic pointer: the status sampler
	// swaps in a rebuilt replica when the daemon's partitioner_epoch moves
	// mid-session, and every issued operation reads the current one.
	var planPtr atomic.Pointer[skewPlan]
	if opts.Skew > 0 && before.Server.Shards > 1 {
		plan := buildSkewPlan(&before.Server, opts.KeyRange)
		planPtr.Store(plan)
		opts.Logf("loadgen: skew %.2f across %d shards (writes -> shards 0-%d, reads -> shards %d-%d)",
			opts.Skew, plan.shards, plan.shards/2-1, plan.shards/2, plan.shards-1)
		// An empty pool means the client's key range never reaches that
		// shard's slice of the placement — easy to hit against a range-
		// partitioned daemon when --keyrange is smaller than the daemon's
		// --key-universe (shard i of N only starts at i*universe/N).
		// Skewed ops aimed at an empty pool are silently skipped, so say
		// so loudly instead of reporting mysteriously low throughput.
		for sh, pool := range plan.pools {
			if len(pool) == 0 {
				opts.Logf("loadgen: WARNING: shard %d owns no keys in [0,%d) under the daemon's %s partitioner (key_universe=%d); skewed ops for it will be skipped — raise --keyrange to cover the shard's span",
					sh, opts.KeyRange, before.Server.Partitioner, before.Server.KeyUniverse)
			}
		}
	}

	// On a sharded daemon, sample /statusz through the session and track
	// the peak simultaneous config divergence across shards — the
	// observable that survives the idle re-convergence at session end.
	var samplerStop chan struct{}
	var samplerWg sync.WaitGroup
	if before.Server.Shards > 1 {
		samplerStop = make(chan struct{})
		samplerWg.Add(1)
		go func() {
			defer samplerWg.Done()
			tick := time.NewTicker(400 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-samplerStop:
					return
				case <-tick.C:
					st, err := fetchStatus(client, base)
					if err != nil {
						continue
					}
					if n, sample := distinctInstalled(st); n > report.MaxDistinctShardConfigs {
						report.MaxDistinctShardConfigs = n
						report.DistinctShardSample = sample
					}
					// A moved partitioner_epoch means a reshard installed a
					// new placement: the cached replica now routes moved keys
					// at their old owner, so rebuild it from the live table.
					if plan := planPtr.Load(); plan != nil && st.Server.PartitionerEpoch != plan.epoch {
						np := buildSkewPlan(&st.Server, opts.KeyRange)
						planPtr.Store(np)
						report.Replans++
						opts.Logf("loadgen: placement epoch %d -> %d: rebuilt partitioner replica (%d shards)",
							plan.epoch, st.Server.PartitionerEpoch, np.shards)
					}
				}
			}
		}()
	}

	var totalLat []float64
	var totalDur time.Duration
	var totalOKSLO uint64
	for i, phase := range opts.Phases {
		opts.Logf("loadgen: phase %d/%d %s for %s", i+1, len(opts.Phases), phase.Mix.Name, phase.Duration)
		pr, lats, okSLO := runPhase(client, base, opts, &planPtr, i, phase)
		after, err := fetchStatus(client, base)
		if err != nil {
			return nil, fmt.Errorf("loadgen: statusz after phase %s: %w", phase.Mix.Name, err)
		}
		pr.Reconfigurations = len(after.Reconfigurations) - seenReconfigs
		seenReconfigs = len(after.Reconfigurations)
		pr.Config = after.Config.Current
		pr.QueueWaitP50Ms = after.QueueWait.P50
		pr.QueueWaitP99Ms = after.QueueWait.P99
		report.Phases = append(report.Phases, pr)
		totalLat = append(totalLat, lats...)
		totalDur += phase.Duration
		totalOKSLO += okSLO
		opts.Logf("loadgen: phase %s done: %d ops (%.0f/s), p50=%.2fms p99=%.2fms, %d rejected, %d expired, %d reconfigurations, config %s",
			phase.Mix.Name, pr.Ops, pr.Throughput, pr.LatencyMs.P50, pr.LatencyMs.P99, pr.Rejected, pr.Expired, pr.Reconfigurations, pr.Config)
	}

	if samplerStop != nil {
		close(samplerStop)
		samplerWg.Wait()
	}
	final, err := fetchStatus(client, base)
	if err != nil {
		return nil, fmt.Errorf("loadgen: final statusz: %w", err)
	}
	if n, sample := distinctInstalled(final); n > report.MaxDistinctShardConfigs {
		report.MaxDistinctShardConfigs = n
		report.DistinctShardSample = sample
	}
	report.FinalConfig = final.Config.Current
	report.ShardConfigs = make([]string, 0, len(final.Shards))
	for _, sh := range final.Shards {
		report.ShardConfigs = append(report.ShardConfigs, sh.Config)
	}
	report.DaemonCommits = final.TM.Commits - before.TM.Commits
	report.Reconfigurations = sessionReconfigs(before.Reconfigurations, final.Reconfigurations)

	total := PhaseReport{Name: "total", DurationSec: totalDur.Seconds(), Config: final.Config.Current,
		Reconfigurations: len(report.Reconfigurations)}
	for _, pr := range report.Phases {
		total.Ops += pr.Ops
		total.Rejected += pr.Rejected
		total.Errors += pr.Errors
		total.Shed += pr.Shed
		total.Expired += pr.Expired
		total.Timeouts += pr.Timeouts
		total.Retried503 += pr.Retried503
	}
	if totalDur > 0 {
		total.Throughput = float64(total.Ops) / totalDur.Seconds()
	}
	total.LatencyMs = metrics.Summarize(totalLat)
	total.QueueWaitP50Ms = final.QueueWait.P50
	total.QueueWaitP99Ms = final.QueueWait.P99
	if attempts := total.Ops + total.Rejected + total.Errors + total.Expired + total.Timeouts; opts.SLOP99 > 0 && attempts > 0 {
		total.SLOAttainment = float64(totalOKSLO) / float64(attempts)
	}
	report.Total = total
	return report, nil
}

// runPhase drives one phase and returns its report, the raw latencies,
// and the count of operations that completed within the SLO target.
func runPhase(client *http.Client, base string, opts LoadgenOptions, planPtr *atomic.Pointer[skewPlan], phaseIdx int, phase LoadPhase) (PhaseReport, []float64, uint64) {
	deadline := time.Now().Add(phase.Duration)
	mix := phase.Mix.Normalize()

	// Open-loop pacing: a dispatcher owed-token loop refills the tokens
	// channel every few milliseconds; slots that find it full are shed.
	var tokens chan struct{}
	var shed uint64
	var dispatchWg sync.WaitGroup
	if opts.Rate > 0 {
		tokens = make(chan struct{}, opts.Conns*4)
		dispatchWg.Add(1)
		go func() {
			defer dispatchWg.Done()
			defer close(tokens)
			start := time.Now()
			issued := 0.0
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for now := range tick.C {
				if now.After(deadline) {
					return
				}
				owed := opts.Rate*now.Sub(start).Seconds() - issued
				for ; owed >= 1; owed-- {
					select {
					case tokens <- struct{}{}:
					default:
						shed++
					}
					issued++
				}
			}
		}()
	}

	stats := make([]connStats, opts.Conns)
	var wg sync.WaitGroup
	for c := 0; c < opts.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := workloads.NewRand(opts.Seed + uint64(phaseIdx)*1_000_000_007 + uint64(c)*0x9E3779B97F4A7C15 + 1)
			st := &stats[c]
			for {
				if tokens != nil {
					if _, ok := <-tokens; !ok {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				issueOp(client, base, opts, planPtr, mix, rng, st)
			}
		}(c)
	}
	wg.Wait()
	dispatchWg.Wait()

	pr := PhaseReport{Name: mix.Name, DurationSec: phase.Duration.Seconds(), Shed: shed}
	var lats []float64
	var okSLO uint64
	for i := range stats {
		pr.Ops += stats[i].ops
		pr.Rejected += stats[i].rejected
		pr.Errors += stats[i].errors
		pr.Expired += stats[i].expired
		pr.Timeouts += stats[i].timeouts
		pr.Retried503 += stats[i].retried503
		okSLO += stats[i].okSLO
		lats = append(lats, stats[i].lat...)
	}
	pr.Throughput = float64(pr.Ops) / phase.Duration.Seconds()
	pr.LatencyMs = metrics.Summarize(lats)
	if attempts := pr.Ops + pr.Rejected + pr.Errors + pr.Expired + pr.Timeouts; opts.SLOP99 > 0 && attempts > 0 {
		pr.SLOAttainment = float64(okSLO) / float64(attempts)
	}
	return pr, lats, okSLO
}

// issueOp issues one operation — drawn from the shard-correlated skew
// plan when one is active and the skew coin lands, from the phase mix
// otherwise — and records its outcome.
func issueOp(client *http.Client, base string, opts LoadgenOptions, planPtr *atomic.Pointer[skewPlan], mix workloads.ServiceOpMix, rng *workloads.Rand, st *connStats) {
	if plan := planPtr.Load(); plan != nil && rng.Float64() < opts.Skew {
		issueSkewedOp(client, base, opts, plan, rng, st)
		return
	}
	if opts.MPutFrac > 0 && rng.Float64() < opts.MPutFrac {
		// Batch-heavy traffic: a 4-key mput over the whole key range,
		// which almost always spans shards and runs the fence protocol.
		keys := make([]string, 4)
		vals := make([]string, 4)
		for i := range keys {
			keys[i] = fmt.Sprintf("%d", rng.Intn(int(opts.KeyRange)))
			vals[i] = fmt.Sprintf("%d", rng.Intn(1000))
		}
		issueURL(client, fmt.Sprintf("%s/kv/mput?keys=%s&vals=%s",
			base, strings.Join(keys, ","), strings.Join(vals, ",")), opts, st)
		return
	}
	k := uint64(rng.Intn(int(opts.KeyRange)))
	p := rng.Float64()
	var url string
	switch {
	case p < mix.Get:
		url = fmt.Sprintf("%s/kv/get?key=%d", base, k)
	case p < mix.Get+mix.Put:
		url = fmt.Sprintf("%s/kv/put?key=%d&val=%d", base, k, k+1)
	case p < mix.Get+mix.Put+mix.Del:
		url = fmt.Sprintf("%s/kv/del?key=%d", base, k)
	case p < mix.Get+mix.Put+mix.Del+mix.CAS:
		url = fmt.Sprintf("%s/kv/cas?key=%d&old=%d&new=%d", base, k, k, k+1)
	default:
		url = fmt.Sprintf("%s/kv/range?lo=%d&hi=%d", base, k, k+opts.Span)
	}
	issueURL(client, url, opts, st)
}

// issueSkewedOp issues one shard-correlated operation: writes hammer a
// hot key set owned by a lower-half shard (contention-heavy mutation
// profile), reads spread over an upper-half shard's pool (lookup
// profile), and a small fraction of traffic is cross-shard mput batches
// exercising the two-phase commit path.
func issueSkewedOp(client *http.Client, base string, opts LoadgenOptions, plan *skewPlan, rng *workloads.Rand, st *connStats) {
	var url string
	if rng.Float64() < 0.03 {
		// Cross-shard batch put: four keys drawn from four different
		// pools so the batch almost always spans shards.
		keys := make([]string, 0, 4)
		for i := 0; i < 4; i++ {
			pool := plan.pools[(i*plan.shards/4)%plan.shards]
			if len(pool) == 0 {
				continue
			}
			keys = append(keys, fmt.Sprintf("%d", pool[rng.Intn(len(pool))]))
		}
		if len(keys) > 0 {
			vals := make([]string, len(keys))
			for i := range vals {
				vals[i] = fmt.Sprintf("%d", rng.Intn(1000))
			}
			url = fmt.Sprintf("%s/kv/mput?keys=%s&vals=%s", base, strings.Join(keys, ","), strings.Join(vals, ","))
		}
	}
	if url == "" {
		t := rng.Intn(plan.shards)
		if t < plan.shards/2 {
			// Write side: put/del/cas on the shard's hot set.
			hot := plan.hot[t]
			if len(hot) == 0 {
				return
			}
			k := hot[rng.Intn(len(hot))]
			switch rng.Intn(3) {
			case 0:
				url = fmt.Sprintf("%s/kv/put?key=%d&val=%d", base, k, k+1)
			case 1:
				url = fmt.Sprintf("%s/kv/del?key=%d", base, k)
			default:
				url = fmt.Sprintf("%s/kv/cas?key=%d&old=%d&new=%d", base, k, k, k+1)
			}
		} else {
			// Read side: gets across the shard's whole pool.
			pool := plan.pools[t]
			if len(pool) == 0 {
				return
			}
			url = fmt.Sprintf("%s/kv/get?key=%d", base, pool[rng.Intn(len(pool))])
		}
	}
	issueURL(client, url, opts, st)
}

// issueURL issues one HTTP operation, drains the response for keep-alive
// reuse, and classifies the outcome into the connection's counters. With
// a deadline configured the request declares its budget via deadline_ms
// (the daemon enforces it server-side) and carries a client context at
// 4x the budget so a hung daemon cannot strand the connection.
//
// A 503 carrying a Retry-After header is the daemon saying "transient:
// breaker open or fence recovery pending" — the operation is retried up
// to three more times after honoring the advertised wait (capped at 2s
// so a pathological header cannot stall the connection). Only the final
// attempt's outcome is classified and its latency recorded; each honored
// retry increments retried503. A 503 without the header stays an error.
func issueURL(client *http.Client, url string, opts LoadgenOptions, st *connStats) {
	if opts.Deadline > 0 {
		sep := "&"
		if !strings.Contains(url, "?") {
			sep = "?"
		}
		url = fmt.Sprintf("%s%sdeadline_ms=%.3f", url, sep, float64(opts.Deadline)/float64(time.Millisecond))
	}
	const maxAttempts = 4
	for attempt := 1; ; attempt++ {
		var req *http.Request
		var err error
		if opts.Deadline > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 4*opts.Deadline)
			defer cancel()
			req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		} else {
			req, err = http.NewRequest(http.MethodGet, url, nil)
		}
		if err != nil {
			st.errors++
			return
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				st.timeouts++
			} else {
				st.errors++
			}
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < maxAttempts {
			if wait, ok := retryAfterWait(resp); ok {
				st.retried503++
				time.Sleep(wait)
				continue
			}
		}
		latMs := float64(time.Since(t0).Nanoseconds()) / 1e6
		st.lat = append(st.lat, latMs)
		switch {
		case resp.StatusCode == http.StatusOK:
			st.ops++
			if opts.SLOP99 > 0 && latMs <= float64(opts.SLOP99)/float64(time.Millisecond) {
				st.okSLO++
			}
		case resp.StatusCode == http.StatusTooManyRequests:
			st.rejected++
		case resp.StatusCode == http.StatusGatewayTimeout:
			st.expired++
		default:
			st.errors++
		}
		return
	}
}

// retryAfterWait extracts a 503 response's Retry-After delay, capped at
// 2 seconds. A missing or unparseable header reports false: the daemon
// gave no recovery estimate, so the response is not worth retrying.
func retryAfterWait(resp *http.Response) (time.Duration, bool) {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0, false
	}
	wait := time.Duration(secs) * time.Second
	if max := 2 * time.Second; wait > max {
		wait = max
	}
	return wait, true
}

// sessionReconfigs extracts the reconfiguration events that happened
// during the session. The merged fleet list is ordered by per-shard
// clocks, which start at different wall times, so prefix slicing is
// wrong on a sharded daemon; each shard's own sub-list is append-only,
// so the delta is taken per shard.
func sessionReconfigs(before, final []ReconfigStatus) []ReconfigStatus {
	prior := map[int]int{}
	for _, e := range before {
		prior[e.Shard]++
	}
	out := []ReconfigStatus{}
	seen := map[int]int{}
	for _, e := range final {
		seen[e.Shard]++
		if seen[e.Shard] > prior[e.Shard] {
			out = append(out, e)
		}
	}
	return out
}

// distinctInstalled counts the distinct configurations installed on
// shards that are not mid-exploration (an exploring shard's "current"
// config is a profiling candidate, not a tuner decision) and returns the
// per-shard snapshot. Fewer than two settled shards yields zero.
func distinctInstalled(st *Status) (int, []string) {
	distinct := map[string]bool{}
	sample := make([]string, len(st.Shards))
	settled := 0
	for i, sh := range st.Shards {
		sample[i] = sh.Config
		if sh.Exploring {
			sample[i] += " (exploring)"
			continue
		}
		settled++
		distinct[sh.Config] = true
	}
	if settled < 2 {
		return 0, sample
	}
	return len(distinct), sample
}

// fetchStatus retrieves and decodes the daemon's /statusz document.
func fetchStatus(client *http.Client, base string) (*Status, error) {
	resp, err := client.Get(base + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statusz: HTTP %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	return &st, nil
}
