package serve

import (
	"net/http"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/shard"
)

// Status is the /statusz document. Field names are part of the operator
// interface (docs/serving.md and docs/sharding.md document them; a golden
// test pins the schema), so additions are fine but renames are breaking.
// On a sharded server the top-level config/tm blocks are fleet rollups;
// the per-shard breakdown lives in Shards.
type Status struct {
	Server  ServerStatus  `json:"server"`
	Config  ConfigStatus  `json:"config"`
	TM      TMStatus      `json:"tm"`
	Ops     OpsStatus     `json:"ops"`
	Latency LatencyStatus `json:"latency_ms"`
	// QueueWait is accept→execution-start; Service is the execution
	// alone. Latency (above) is accept→reply. Separating them tells a
	// saturated admission queue apart from a slow store.
	QueueWait LatencyStatus `json:"queue_wait_ms"`
	Service   LatencyStatus `json:"service_ms"`
	// Shards is the per-shard breakdown: one entry per key-space shard,
	// each with its own installed configuration, tuner state and abort
	// profile.
	Shards []ShardStatus `json:"shards"`
	// Reconfigurations is the optimization-phase event log across all
	// shards, ordered by time.
	Reconfigurations []ReconfigStatus `json:"reconfigurations"`
	// Timeline is the tail of each shard's KPI timeline merged and
	// ordered by time (KPI = committed transactions per second).
	Timeline []TimelineStatus `json:"timeline"`
}

// ServerStatus describes the serving layer itself. Workers and QueueDepth
// are per shard; ActiveWorkers and QueueLen are summed across shards.
// Partitioner and KeyUniverse, together with Shards, are everything a
// client needs to rebuild the exact placement function the server routes
// with (shard.NewPartitioner) — the loadgen skew planner does.
type ServerStatus struct {
	UptimeSec     float64 `json:"uptime_sec"`
	Shards        int     `json:"shards"`
	Partitioner   string  `json:"partitioner"`
	KeyUniverse   uint64  `json:"key_universe"`
	Workers       int     `json:"workers"`
	ActiveWorkers int     `json:"active_workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueLen      int     `json:"queue_len"`
	// SLOP99Ms and DeadlineMs echo the configured p99 target and default
	// per-op deadline in milliseconds (0 = unset) so a monitoring stack
	// can assert attainment against the target the server actually runs.
	SLOP99Ms   float64 `json:"slo_p99_ms"`
	DeadlineMs float64 `json:"deadline_ms"`
	// FenceDeadlineMs echoes the failure detector's orphaned-fence
	// deadline (negative = detection disabled).
	FenceDeadlineMs float64 `json:"fence_deadline_ms"`
	// PartitionerEpoch is the placement generation: 0 at boot, +1 per
	// installed reshard. A client that cached Partitioner/SpanStarts must
	// rebuild its replica when this moves (the loadgen skew planner does).
	PartitionerEpoch uint64 `json:"partitioner_epoch"`
	// Resharding is true while a migration (split or merge) is in flight.
	Resharding bool `json:"resharding"`
	// SpareShards counts fleet entries above the placement's top shard:
	// shards a rolled-back migration left behind. The next split reuses
	// them; the reaper retires them after Options.SpareGrace.
	SpareShards int `json:"spare_shards"`
	// SpanStarts/SpanOwners are the range partitioner's live span table
	// (start key of each span, ascending, and its owning shard) — after a
	// reshard the placement is no longer derivable from Shards alone, so
	// clients rebuild from the table (shard.NewRangeFromSpans). Absent
	// under the hash/modulo partitioners.
	SpanStarts []uint64 `json:"span_starts,omitempty"`
	SpanOwners []int    `json:"span_owners,omitempty"`
}

// ConfigStatus describes the fleet's configuration and tuner state.
// Current is shard 0's installed configuration (the only shard when
// unsharded); Distinct counts distinct configurations across shards, and
// Phases sums optimization phases fleet-wide.
type ConfigStatus struct {
	Current   string `json:"current"`
	Distinct  int    `json:"distinct"`
	AutoTune  bool   `json:"autotune"`
	Phases    int    `json:"phases"`
	Exploring bool   `json:"exploring"`
}

// TMStatus aggregates transaction statistics since startup (fleet-wide at
// the top level, per shard inside ShardStatus).
type TMStatus struct {
	Commits          uint64   `json:"commits"`
	Aborts           uint64   `json:"aborts"`
	AbortRate        float64  `json:"abort_rate"`
	ConflictAborts   uint64   `json:"conflict_aborts"`
	CapacityAborts   uint64   `json:"capacity_aborts"`
	FallbackAborts   uint64   `json:"fallback_aborts"`
	FallbackRuns     uint64   `json:"fallback_runs"`
	PerWorkerCommits []uint64 `json:"per_worker_commits"`
}

// ShardStatus is one shard's slice of the fleet: its configuration and
// tuner state plus its transaction statistics and queue occupancy.
type ShardStatus struct {
	Index         int    `json:"index"`
	Config        string `json:"config"`
	Phases        int    `json:"phases"`
	Exploring     bool   `json:"exploring"`
	ActiveWorkers int    `json:"active_workers"`
	QueueLen      int    `json:"queue_len"`
	FenceHeld     bool   `json:"fence_held"`
	// FenceEpoch is the shard's fence acquisition counter (monotonic;
	// each cross-shard hold of this shard bumps it). Breaker is the
	// shard's circuit-breaker state: closed, open or half-open.
	FenceEpoch uint64 `json:"fence_epoch"`
	Breaker    string `json:"breaker"`
	// OpsRouted counts data operations admitted to this shard — the
	// per-shard load signal a split-heaviest rebalance plan
	// (shard.RangePartitioner.SplitHeaviest) consumes.
	OpsRouted uint64   `json:"ops_routed"`
	TM        TMStatus `json:"tm"`
}

// OpsStatus counts served operations by kind, plus admission and
// cross-shard commit outcomes.
type OpsStatus struct {
	Served   map[string]uint64 `json:"served"`
	Total    uint64            `json:"total"`
	Rejected uint64            `json:"rejected"`
	// Requeued counts passes that executed nothing and had to be repeated:
	// a fenced operation's retries plus slots a shrink retired between
	// lease and execution.
	Requeued uint64 `json:"requeued"`
	// Direct counts requests (data operations and control steps) executed
	// on their submitter's goroutine under a leased slot; Queued those
	// that found no free slot and went through a lane to a queue worker.
	// LeaseSpins counts the direct ones whose slot came free while the
	// submitter spun for it (without the spin they would have queued).
	Direct     uint64 `json:"direct"`
	Queued     uint64 `json:"queued"`
	LeaseSpins uint64 `json:"lease_spins"`
	HookFires  uint64 `json:"reconfigure_hook_fires"`
	Drains     uint64 `json:"drains"`
	// ShedDeadline counts queued ops dropped unexecuted (deadline passed
	// or client hung up); ShedLatency counts admissions rejected because
	// queue-wait p99 crossed the SLO budget — the two tail-latency shed
	// paths beside the queue-depth Rejected.
	ShedDeadline uint64 `json:"shed_deadline"`
	ShedLatency  uint64 `json:"shed_latency"`
	// CrossOps counts committed cross-shard (multi-participant) commits;
	// CrossAborts counts abort-all retries of the acquire phase; Fenced
	// counts attempts of local operations that came back unexecuted
	// because a fence was held.
	CrossOps    uint64 `json:"cross_ops"`
	CrossAborts uint64 `json:"cross_aborts"`
	Fenced      uint64 `json:"fenced_requeues"`
	// CrossBackoffMs totals the measured acquire-phase waits of aborted
	// coordinators (each ends at the blocking shard's next release, or at
	// the capped, jittered exponential backoff).
	CrossBackoffMs float64 `json:"cross_backoff_ms"`
	// FenceWaits counts waits for a fence release — fenced operations and
	// aborted coordinators alike; FenceWaitTimeouts those that ran out
	// their bound without a wake-up; FenceWaitMs their measured total.
	// FenceWaitSpun counts the waits whose release landed while the waiter
	// was still spinning, so FenceWaits − FenceWaitSpun blocked.
	FenceWaits        uint64  `json:"fence_waits"`
	FenceWaitTimeouts uint64  `json:"fence_wait_timeouts"`
	FenceWaitMs       float64 `json:"fence_wait_ms"`
	FenceWaitSpun     uint64  `json:"fence_wait_spun"`
	// CrossCrashes counts injected coordinator crashes (fault
	// substrate); FenceRecovered counts orphaned fence batches the
	// failure detector recovered — FenceRolledForward of them re-applied
	// as decided writes, FenceAborted released with nothing applied.
	CrossCrashes       uint64 `json:"cross_crashes"`
	FenceRecovered     uint64 `json:"fence_recovered"`
	FenceRolledForward uint64 `json:"fence_rolled_forward"`
	FenceAborted       uint64 `json:"fence_aborted"`
	// BreakerOpenTotal counts circuit-breaker open transitions across
	// shards; BreakerShed counts admissions shed (503 + Retry-After)
	// while a breaker was open.
	BreakerOpenTotal uint64 `json:"breaker_open_total"`
	BreakerShed      uint64 `json:"breaker_shed"`
	// Faults reports per-rule fault-injection fire counts (absent
	// without an armed injector).
	Faults map[string]uint64 `json:"faults,omitempty"`
	// RangeLocal counts scans whose owner set collapsed to one shard (no
	// fences taken); RangeCross counts scans that ran the cross-shard
	// protocol, fencing RangeFencedShards shards in total. The scan-
	// locality observables the hash-vs-range partitioner A/B compares.
	RangeLocal        uint64 `json:"range_local"`
	RangeCross        uint64 `json:"range_cross"`
	RangeFencedShards uint64 `json:"range_fenced_shards"`
	// FenceKeysHeld sums the fence table occupancy across shards at
	// snapshot time: the holds in being, whatever signature they publish.
	FenceKeysHeld uint64 `json:"fence_keys_held"`
	// Reshards counts installed split flips and Merges installed merge
	// flips; KeysMigrated totals the key-value pairs moved by either;
	// MovedBounces counts operations that hit a donor's bumped
	// placement-epoch word and were re-routed under the new placement.
	// ShardsRetired counts donor and spare shards drained and stopped for
	// good; RangeConservative counts hash-partitioner scans whose owner
	// set fell back to every shard because the interval was wider than
	// shard.RangeEnumCap (the over-fencing the range partitioner avoids).
	Reshards          uint64 `json:"reshards"`
	Merges            uint64 `json:"merges"`
	KeysMigrated      uint64 `json:"keys_migrated"`
	MovedBounces      uint64 `json:"moved_bounces"`
	ShardsRetired     uint64 `json:"shards_retired"`
	RangeConservative uint64 `json:"range_conservative"`
}

// LatencyStatus summarizes one latency dimension in milliseconds over the
// sliding reservoir window.
type LatencyStatus struct {
	metrics.Summary
	// WindowObserved is the total number of requests ever observed (the
	// summary covers only the most recent window of them).
	WindowObserved uint64 `json:"window_observed"`
}

// ReconfigStatus is one optimization-phase event of one shard.
type ReconfigStatus struct {
	Shard  int     `json:"shard"`
	AtSec  float64 `json:"at_sec"`
	From   string  `json:"from"`
	To     string  `json:"to"`
	Reason string  `json:"reason"`
	Phase  int     `json:"phase"`
}

// TimelineStatus is one KPI observation of one shard's adapter thread.
type TimelineStatus struct {
	Shard     int     `json:"shard"`
	AtSec     float64 `json:"at_sec"`
	KPI       float64 `json:"kpi"`
	Config    string  `json:"config"`
	Exploring bool    `json:"exploring"`
}

// latencyStatus packages one reservoir.
func latencyStatus(r *metrics.Reservoir) LatencyStatus {
	return LatencyStatus{Summary: metrics.Summarize(r.Snapshot()), WindowObserved: r.Count()}
}

// StatusSnapshot assembles the full status document. It synchronizes with
// every shard's worker threads the same way Stats does, so it must not be
// called from inside an atomic block.
func (s *Server) StatusSnapshot() Status {
	// Snapshot the placement and the fleet once: a concurrent reshard may
	// flip either mid-assembly, and the document must be internally
	// consistent (the fleet is always a superset of what the snapshotted
	// placement names).
	part, epoch := s.place.Load()
	fleetShards := s.fleet()
	var spanStarts []uint64
	var spanOwners []int
	if rp, ok := part.(*shard.RangePartitioner); ok {
		spanStarts, spanOwners = rp.Spans()
	}

	var fleet TMStatus
	shards := make([]ShardStatus, len(fleetShards))
	var reconfigs []ReconfigStatus
	var timeline []TimelineStatus
	phases := 0
	exploring := false
	activeWorkers, queueLen := 0, 0
	var fenceKeysHeld uint64
	configs := map[string]bool{}

	for i, ss := range fleetShards {
		perWorker := ss.sys.StatsPerWorker()
		var tm TMStatus
		commits := make([]uint64, len(perWorker))
		for j, st := range perWorker {
			commits[j] = st.Commits
			tm.Commits += st.Commits
			tm.Aborts += st.Aborts
			tm.ConflictAborts += st.ConflictAborts
			tm.CapacityAborts += st.CapacityAborts
			tm.FallbackAborts += st.FallbackAborts
			tm.FallbackRuns += st.FallbackRuns
		}
		if att := tm.Commits + tm.Aborts; att > 0 {
			tm.AbortRate = float64(tm.Aborts) / float64(att)
		}
		tm.PerWorkerCommits = commits

		fleet.Commits += tm.Commits
		fleet.Aborts += tm.Aborts
		fleet.ConflictAborts += tm.ConflictAborts
		fleet.CapacityAborts += tm.CapacityAborts
		fleet.FallbackAborts += tm.FallbackAborts
		fleet.FallbackRuns += tm.FallbackRuns
		fleet.PerWorkerCommits = append(fleet.PerWorkerCommits, commits...)

		cfg := ss.sys.CurrentConfig().String()
		configs[cfg] = true
		shPhases := ss.sys.Phases()
		phases += shPhases
		shExploring := ss.sys.Exploring()
		exploring = exploring || shExploring
		act := int(ss.active.Load())
		activeWorkers += act
		qn := len(ss.queue)
		queueLen += qn
		held := ss.sys.Load(ss.store.FenceOccWord())
		fenceKeysHeld += held

		shards[i] = ShardStatus{
			Index:         i,
			Config:        cfg,
			Phases:        shPhases,
			Exploring:     shExploring,
			ActiveWorkers: act,
			QueueLen:      qn,
			FenceHeld:     held != 0,
			FenceEpoch:    ss.sys.Load(ss.store.FenceEpochWord()),
			Breaker:       ss.breakerName(time.Now()),
			OpsRouted:     ss.routed.Load(),
			TM:            tm,
		}

		for _, e := range ss.sys.Reconfigurations() {
			reconfigs = append(reconfigs, ReconfigStatus{
				Shard:  i,
				AtSec:  e.At.Seconds(),
				From:   e.From.String(),
				To:     e.To.String(),
				Reason: e.Reason,
				Phase:  e.Phase,
			})
		}
		tl := ss.sys.Timeline()
		if tail := s.opts.TimelineTail; len(tl) > tail {
			tl = tl[len(tl)-tail:]
		}
		for _, p := range tl {
			timeline = append(timeline, TimelineStatus{
				Shard:     i,
				AtSec:     p.At.Seconds(),
				KPI:       p.KPI,
				Config:    p.Config.String(),
				Exploring: p.Exploring,
			})
		}
	}
	if att := fleet.Commits + fleet.Aborts; att > 0 {
		fleet.AbortRate = float64(fleet.Aborts) / float64(att)
	}
	sort.SliceStable(reconfigs, func(i, j int) bool { return reconfigs[i].AtSec < reconfigs[j].AtSec })
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].AtSec < timeline[j].AtSec })
	if reconfigs == nil {
		reconfigs = []ReconfigStatus{}
	}
	if timeline == nil {
		timeline = []TimelineStatus{}
	}

	served := make(map[string]uint64, numOps)
	var servedTotal uint64
	for op := opKind(0); op < numOps; op++ {
		n := s.served[op].Load()
		served[opNames[op]] = n
		servedTotal += n
	}

	return Status{
		Server: ServerStatus{
			UptimeSec:        time.Since(s.start).Seconds(),
			Shards:           len(fleetShards),
			Partitioner:      part.Kind(),
			KeyUniverse:      s.opts.KeyUniverse,
			Workers:          s.opts.Workers,
			ActiveWorkers:    activeWorkers,
			QueueDepth:       s.opts.QueueDepth,
			QueueLen:         queueLen,
			SLOP99Ms:         float64(s.opts.SLOP99) / float64(time.Millisecond),
			DeadlineMs:       float64(s.opts.Deadline) / float64(time.Millisecond),
			FenceDeadlineMs:  float64(s.opts.FenceDeadline) / float64(time.Millisecond),
			PartitionerEpoch: epoch,
			Resharding:       s.resharding.Load(),
			SpareShards:      max(0, len(fleetShards)-part.Shards()),
			SpanStarts:       spanStarts,
			SpanOwners:       spanOwners,
		},
		Config: ConfigStatus{
			Current:   fleetShards[0].sys.CurrentConfig().String(),
			Distinct:  len(configs),
			AutoTune:  s.opts.AutoTune,
			Phases:    phases,
			Exploring: exploring,
		},
		TM: fleet,
		Ops: OpsStatus{
			Served:             served,
			Total:              servedTotal,
			Rejected:           s.rejected.Load(),
			Requeued:           s.requeued.Load(),
			Direct:             s.directOps.Load(),
			Queued:             s.queuedOps.Load(),
			LeaseSpins:         s.leaseSpins.Load(),
			HookFires:          s.hookFires.Load(),
			Drains:             s.drains.Load(),
			ShedDeadline:       s.shedDeadline.Load(),
			ShedLatency:        s.shedLatency.Load(),
			CrossOps:           s.crossOps.Load(),
			CrossAborts:        s.crossAborts.Load(),
			Fenced:             s.fenced.Load(),
			CrossBackoffMs:     float64(s.crossBackoffNs.Load()) / 1e6,
			FenceWaits:         s.fenceWaits.Load(),
			FenceWaitTimeouts:  s.fenceWaitTimeouts.Load(),
			FenceWaitMs:        float64(s.fenceWaitNs.Load()) / 1e6,
			FenceWaitSpun:      s.fenceWaitSpun.Load(),
			CrossCrashes:       s.crossCrashes.Load(),
			FenceRecovered:     s.fenceRecovered.Load(),
			FenceRolledForward: s.fenceRolledForward.Load(),
			FenceAborted:       s.fenceAborted.Load(),
			BreakerOpenTotal:   s.breakerOpenTotal.Load(),
			BreakerShed:        s.breakerShed.Load(),
			Faults:             s.opts.Fault.Snapshot(),
			RangeLocal:         s.rangeLocal.Load(),
			RangeCross:         s.rangeCross.Load(),
			RangeFencedShards:  s.rangeFencedShards.Load(),
			FenceKeysHeld:      fenceKeysHeld,
			Reshards:           s.reshards.Load(),
			Merges:             s.merges.Load(),
			KeysMigrated:       s.keysMigrated.Load(),
			MovedBounces:       s.movedBounces.Load(),
			ShardsRetired:      s.shardsRetired.Load(),
			RangeConservative:  s.rangeConservative.Load(),
		},
		Latency:          latencyStatus(s.lat),
		QueueWait:        latencyStatus(s.queueWait),
		Service:          latencyStatus(s.svc),
		Shards:           shards,
		Reconfigurations: reconfigs,
		Timeline:         timeline,
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.StatusSnapshot())
}
