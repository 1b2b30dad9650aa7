package scenario

import (
	"fmt"
	"math"

	"repro/internal/workloads"
)

// Service family: proteusd's key-value traffic shapes and serving
// mechanisms, replayed in-process.
//
//   - The single-store scenarios are one-shard runs of the same kernel
//     (svcstream.go): `service-kv` replays the `proteusbench loadgen`
//     phase-shift session documented in docs/serving.md; `service-steady`
//     pins one mix for sweep rows; `service-slo` pins one mix for the SLO
//     tuning A/B; `service-diurnal` drives the change monitor with an
//     offered-rate curve.
//   - The protocol twins run on one kernel (svcshard.go,
//     docs/architecture.md): `service-sharded` exercises consistent-hash
//     routing and the cross-shard 2PC; `service-range` and
//     `service-hotkey` A/B the hash vs. order-preserving partitioner under
//     an identical scan-heavy or hot-key op stream (docs/sharding.md);
//     `service-chaos` injects coordinator crashes and foreign wedges for
//     the failure detector; `service-reshard` and `service-merge` split
//     and merge spans live under a stale client placement.
//
// Every parameter default lives in the Param below; the workloads take
// their fields as given.

var (
	svcKeyRange = Param{Name: "keyrange", Desc: "key range of the store", Kind: Int, Default: "16384"}
	svcInitial  = Param{Name: "initial", Desc: "pre-populated size (0 = keyrange/2)", Kind: Int, Default: "0"}
	svcSpan     = Param{Name: "span", Desc: "range-scan width", Kind: Int, Default: "256"}
	svcPhaseOps = Param{Name: "phaseops", Desc: "operations per traffic phase", Kind: Int, Default: "7000"}
	svcMix      = Param{Name: "mix", Desc: "traffic mix: read-heavy, write-heavy, scan or mixed", Kind: String, Default: "read-heavy"}

	shKeyRange   = Param{Name: "keyrange", Desc: "key range of the sharded store", Kind: Int, Default: "16384"}
	shShards     = Param{Name: "shards", Desc: "number of key-space shards", Kind: Int, Default: "4"}
	shInitial    = Param{Name: "initial", Desc: "pre-populated size (0 = keyrange/2)", Kind: Int, Default: "0"}
	shSpan       = Param{Name: "span", Desc: "per-shard range-scan width", Kind: Int, Default: "128"}
	shSkew       = Param{Name: "skew", Desc: "probability of the shard-correlated mix (0 = uniform routing)", Kind: Float, Default: "0.8"}
	shBatchEvery = Param{Name: "batchevery", Desc: "every Nth op is a cross-shard 2PC batch (0 disables)", Kind: Int, Default: "64"}
	shBatchKeys  = Param{Name: "batchkeys", Desc: "keys per cross-shard batch", Kind: Int, Default: "4"}

	hkPartitioner = Param{Name: "partitioner", Desc: "placement policy: hash or range", Kind: String, Default: "range"}
	hkShards      = Param{Name: "shards", Desc: "number of key-space shards", Kind: Int, Default: "4"}
	hkKeyRange    = Param{Name: "keyrange", Desc: "key range (and range-partitioner universe)", Kind: Int, Default: "4096"}
	hkInitial     = Param{Name: "initial", Desc: "pre-populated size (0 = keyrange/2)", Kind: Int, Default: "0"}
	hkHotSpan     = Param{Name: "hotspan", Desc: "width of the Zipf hot window", Kind: Int, Default: "512"}
	hkHotFrac     = Param{Name: "hotfrac", Desc: "probability an op draws from the hot window", Kind: Float, Default: "0.9"}
	hkTheta       = Param{Name: "theta", Desc: "Zipf exponent of the hot window", Kind: Float, Default: "1.1"}
	hkMoveEvery   = Param{Name: "moveevery", Desc: "slide the hot-window head every N ops", Kind: Int, Default: "1000"}
	hkSpan        = Param{Name: "span", Desc: "range-scan width", Kind: Int, Default: "64"}
	hkMix         = Param{Name: "mix", Desc: "traffic mix of the hot/uniform streams", Kind: String, Default: "mixed"}
	hkBatchEvery  = Param{Name: "batchevery", Desc: "every Nth op is a cross-shard 2PC batch (0 disables)", Kind: Int, Default: "64"}
	hkBatchKeys   = Param{Name: "batchkeys", Desc: "keys per cross-shard batch", Kind: Int, Default: "4"}

	diKeyRange  = Param{Name: "keyrange", Desc: "key range of the store", Kind: Int, Default: "4096"}
	diInitial   = Param{Name: "initial", Desc: "pre-populated size (0 = keyrange/2)", Kind: Int, Default: "0"}
	diSpan      = Param{Name: "span", Desc: "range-scan width", Kind: Int, Default: "64"}
	diMix       = Param{Name: "mix", Desc: "traffic mix of the steady stream", Kind: String, Default: "read-heavy"}
	diPeriodOps = Param{Name: "periodops", Desc: "ops per full busy+idle cycle", Kind: Int, Default: "12000"}
	diRateBusy  = Param{Name: "ratebusy", Desc: "busy-half offered rate (ops/sec)", Kind: Float, Default: "100000"}
	diRateIdle  = Param{Name: "rateidle", Desc: "idle-half offered rate (ops/sec)", Kind: Float, Default: "50000"}
	diRipple    = Param{Name: "ripple", Desc: "sub-step ripple height (fraction of the level)", Kind: Float, Default: "0.035"}

	sloKeyRange = Param{Name: "keyrange", Desc: "key range of the store", Kind: Int, Default: "16384"}
	sloInitial  = Param{Name: "initial", Desc: "pre-populated size (0 = keyrange/2)", Kind: Int, Default: "0"}
	sloSpan     = Param{Name: "span", Desc: "range-scan width", Kind: Int, Default: "256"}
	sloMix      = Param{Name: "mix", Desc: "traffic mix of the pinned stream", Kind: String, Default: "scan-heavy"}

	chShards      = Param{Name: "shards", Desc: "number of key-space shards", Kind: Int, Default: "4"}
	chKeyRange    = Param{Name: "keyrange", Desc: "key range of the sharded store", Kind: Int, Default: "16384"}
	chInitial     = Param{Name: "initial", Desc: "pre-populated size (0 = keyrange/2)", Kind: Int, Default: "0"}
	chCrossEvery  = Param{Name: "crossevery", Desc: "every Nth op is a cross-shard 2PC batch", Kind: Int, Default: "16"}
	chBatchKeys   = Param{Name: "batchkeys", Desc: "keys per cross-shard batch", Kind: Int, Default: "4"}
	chFault       = Param{Name: "fault", Desc: "injected failure: crash (roll-forward leg) or stall (abort leg)", Kind: String, Default: "crash"}
	chFaultEvery  = Param{Name: "faultevery", Desc: "inject on every Nth cross-shard batch", Kind: Int, Default: "4"}
	chFaultCount  = Param{Name: "faultcount", Desc: "total injections before the quiet tail", Kind: Int, Default: "6"}
	chDeadlineOps = Param{Name: "deadlineops", Desc: "orphaned-fence deadline in operations", Kind: Int, Default: "200"}

	rsShards       = Param{Name: "shards", Desc: "initial shard count", Kind: Int, Default: "2"}
	rsMaxShards    = Param{Name: "maxshards", Desc: "shard-count ceiling for splits", Kind: Int, Default: "4"}
	rsKeyRange     = Param{Name: "keyrange", Desc: "key range (and range-partitioner universe)", Kind: Int, Default: "16384"}
	rsInitial      = Param{Name: "initial", Desc: "pre-populated size (0 = keyrange/2)", Kind: Int, Default: "0"}
	rsHotTenth     = Param{Name: "hottenth", Desc: "per-mille chance an op draws from the hot low span", Kind: Int, Default: "600"}
	rsSplitEvery   = Param{Name: "splitevery", Desc: "attempt one split-and-migrate every N ops", Kind: Int, Default: "1500"}
	rsRefreshEvery = Param{Name: "refreshevery", Desc: "client placement-replica refresh cadence in ops", Kind: Int, Default: "64"}
	rsMigrateBatch = Param{Name: "migratebatch", Desc: "keys per fenced copy/delete batch", Kind: Int, Default: "64"}
	rsCrossEvery   = Param{Name: "crossevery", Desc: "every Nth op is a cross-shard 2PC batch", Kind: Int, Default: "16"}
	rsBatchKeys    = Param{Name: "batchkeys", Desc: "keys per cross-shard batch", Kind: Int, Default: "4"}

	msShards       = Param{Name: "shards", Desc: "initial shard count", Kind: Int, Default: "4"}
	msMinShards    = Param{Name: "minshards", Desc: "shard-count floor for merges", Kind: Int, Default: "2"}
	msKeyRange     = Param{Name: "keyrange", Desc: "key range (and range-partitioner universe)", Kind: Int, Default: "16384"}
	msInitial      = Param{Name: "initial", Desc: "pre-populated size (0 = keyrange/2)", Kind: Int, Default: "0"}
	msHotTenth     = Param{Name: "hottenth", Desc: "per-mille chance an op draws from the hot low span", Kind: Int, Default: "600"}
	msProbeTenth   = Param{Name: "probetenth", Desc: "per-mille chance an op probes the merge-moved window", Kind: Int, Default: "30"}
	msMergeEvery   = Param{Name: "mergeevery", Desc: "attempt one merge-and-retire every N ops", Kind: Int, Default: "1500"}
	msRefreshEvery = Param{Name: "refreshevery", Desc: "client placement-replica refresh cadence in ops", Kind: Int, Default: "64"}
	msMigrateBatch = Param{Name: "migratebatch", Desc: "keys per fenced copy/delete batch", Kind: Int, Default: "64"}
	msCrossEvery   = Param{Name: "crossevery", Desc: "every Nth op is a cross-shard 2PC batch", Kind: Int, Default: "16"}
	msBatchKeys    = Param{Name: "batchkeys", Desc: "keys per cross-shard batch", Kind: Int, Default: "4"}

	rgPartitioner = Param{Name: "partitioner", Desc: "placement policy: hash or range", Kind: String, Default: "range"}
	rgShards      = Param{Name: "shards", Desc: "number of key-space shards", Kind: Int, Default: "4"}
	rgKeyRange    = Param{Name: "keyrange", Desc: "key range (and range-partitioner universe)", Kind: Int, Default: "4096"}
	rgInitial     = Param{Name: "initial", Desc: "pre-populated size (0 = keyrange/2)", Kind: Int, Default: "0"}
	rgSpan        = Param{Name: "span", Desc: "range-scan width", Kind: Int, Default: "64"}
	rgMix         = Param{Name: "mix", Desc: "traffic mix (scan-heavy stresses placement)", Kind: String, Default: "scan-heavy"}
	rgBatchEvery  = Param{Name: "batchevery", Desc: "every Nth op is a cross-shard 2PC batch (0 disables)", Kind: Int, Default: "32"}
	rgBatchKeys   = Param{Name: "batchkeys", Desc: "keys per cross-shard batch", Kind: Int, Default: "4"}
)

func init() {
	Register(Scenario{
		Name:        "service-kv",
		Family:      "service",
		Description: "proteusd KV traffic: read-heavy → write-heavy → scan phase shift",
		Params:      []Param{svcKeyRange, svcInitial, svcSpan, svcPhaseOps},
		Make: func(v Values) (workloads.Workload, error) {
			s, err := newStream("service-kv", v.Int(svcKeyRange), v.Int(svcInitial), v.Int(svcSpan), v.Int(svcPhaseOps),
				"read-heavy", "write-heavy", "scan")
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	})
	Register(Scenario{
		Name:        "service-sharded",
		Family:      "service",
		Description: "sharded KV: consistent-hash routing, skewed vs. uniform per-shard mixes, cross-shard 2PC batches",
		Params:      []Param{shShards, shKeyRange, shInitial, shSpan, shSkew, shBatchEvery, shBatchKeys},
		Make: func(v Values) (workloads.Workload, error) {
			return &ServiceSharded{
				Shards:      v.Int(shShards),
				KeyRange:    v.Int(shKeyRange),
				InitialSize: v.Int(shInitial),
				Span:        v.Int(shSpan),
				Skew:        v.Float(shSkew),
				BatchEvery:  v.Int(shBatchEvery),
				BatchKeys:   v.Int(shBatchKeys),
			}, nil
		},
	})
	Register(Scenario{
		Name:        "service-chaos",
		Family:      "service",
		Description: "self-healing 2PC under injected faults: coordinator crashes roll forward, foreign wedges abort, recovery counts in metrics",
		Params:      []Param{chShards, chKeyRange, chInitial, chCrossEvery, chBatchKeys, chFault, chFaultEvery, chFaultCount, chDeadlineOps},
		Make: func(v Values) (workloads.Workload, error) {
			return &ServiceChaos{
				Shards:      v.Int(chShards),
				KeyRange:    v.Int(chKeyRange),
				InitialSize: v.Int(chInitial),
				CrossEvery:  v.Int(chCrossEvery),
				BatchKeys:   v.Int(chBatchKeys),
				FaultKind:   v.Str(chFault),
				FaultEvery:  v.Int(chFaultEvery),
				FaultCount:  v.Int(chFaultCount),
				DeadlineOps: v.Int(chDeadlineOps),
			}, nil
		},
	})
	Register(Scenario{
		Name:        "service-reshard",
		Family:      "service",
		Description: "live resharding: PlanSplitHeaviest plans installed under skewed load — fenced span migration, epoch'd placement flips, stale-replica bounces in metrics",
		Params:      []Param{rsShards, rsMaxShards, rsKeyRange, rsInitial, rsHotTenth, rsSplitEvery, rsRefreshEvery, rsMigrateBatch, rsCrossEvery, rsBatchKeys},
		Make: func(v Values) (workloads.Workload, error) {
			return &ServiceReshard{
				Shards:       v.Int(rsShards),
				MaxShards:    v.Int(rsMaxShards),
				KeyRange:     v.Int(rsKeyRange),
				InitialSize:  v.Int(rsInitial),
				HotTenth:     v.Int(rsHotTenth),
				SplitEvery:   v.Int(rsSplitEvery),
				RefreshEvery: v.Int(rsRefreshEvery),
				MigrateBatch: v.Int(rsMigrateBatch),
				CrossEvery:   v.Int(rsCrossEvery),
				BatchKeys:    v.Int(rsBatchKeys),
			}, nil
		},
	})
	Register(Scenario{
		Name:        "service-merge",
		Family:      "service",
		Description: "live merge/shrink: PlanMergeColdest retires cooled top shards — fenced copy into the live recipient, shrinking placement flips, retired-shard bounces in metrics",
		Params:      []Param{msShards, msMinShards, msKeyRange, msInitial, msHotTenth, msProbeTenth, msMergeEvery, msRefreshEvery, msMigrateBatch, msCrossEvery, msBatchKeys},
		Make: func(v Values) (workloads.Workload, error) {
			return &ServiceMerge{
				Shards:       v.Int(msShards),
				MinShards:    v.Int(msMinShards),
				KeyRange:     v.Int(msKeyRange),
				InitialSize:  v.Int(msInitial),
				HotTenth:     v.Int(msHotTenth),
				ProbeTenth:   v.Int(msProbeTenth),
				MergeEvery:   v.Int(msMergeEvery),
				RefreshEvery: v.Int(msRefreshEvery),
				MigrateBatch: v.Int(msMigrateBatch),
				CrossEvery:   v.Int(msCrossEvery),
				BatchKeys:    v.Int(msBatchKeys),
			}, nil
		},
	})
	Register(Scenario{
		Name:        "service-range",
		Family:      "service",
		Description: "partitioner A/B: identical scan-heavy op stream under hash or range placement, fence counts in metrics",
		Params:      []Param{rgPartitioner, rgShards, rgKeyRange, rgInitial, rgSpan, rgMix, rgBatchEvery, rgBatchKeys},
		Make: func(v Values) (workloads.Workload, error) {
			return &ServiceRange{
				Partitioner: v.Str(rgPartitioner),
				Shards:      v.Int(rgShards),
				KeyRange:    v.Int(rgKeyRange),
				InitialSize: v.Int(rgInitial),
				Span:        v.Int(rgSpan),
				Mix:         v.Str(rgMix),
				BatchEvery:  v.Int(rgBatchEvery),
				BatchKeys:   v.Int(rgBatchKeys),
			}, nil
		},
	})
	Register(Scenario{
		Name:        "service-hotkey",
		Family:      "service",
		Description: "hostile hot-key traffic: sliding Zipf window over hash or range placement, locality counters in metrics",
		Params:      []Param{hkPartitioner, hkShards, hkKeyRange, hkInitial, hkHotSpan, hkHotFrac, hkTheta, hkMoveEvery, hkSpan, hkMix, hkBatchEvery, hkBatchKeys},
		Make: func(v Values) (workloads.Workload, error) {
			return &ServiceHotKey{
				Partitioner: v.Str(hkPartitioner),
				Shards:      v.Int(hkShards),
				KeyRange:    v.Int(hkKeyRange),
				InitialSize: v.Int(hkInitial),
				HotSpan:     v.Int(hkHotSpan),
				HotFrac:     v.Float(hkHotFrac),
				Theta:       v.Float(hkTheta),
				MoveEvery:   v.Int(hkMoveEvery),
				Span:        v.Int(hkSpan),
				Mix:         v.Str(hkMix),
				BatchEvery:  v.Int(hkBatchEvery),
				BatchKeys:   v.Int(hkBatchKeys),
			}, nil
		},
	})
	Register(Scenario{
		Name:        "service-diurnal",
		Family:      "service",
		Description: "diurnal offered-rate curve with a sub-band ripple: the monitor dwell/hysteresis churn trap",
		Params:      []Param{diKeyRange, diInitial, diSpan, diMix, diPeriodOps, diRateBusy, diRateIdle, diRipple},
		Make: func(v Values) (workloads.Workload, error) {
			if err := positive("service-diurnal", v.Int(diPeriodOps)); err != nil {
				return nil, err
			}
			if v.Float(diRateBusy) <= 0 || v.Float(diRateIdle) <= 0 {
				return nil, fmt.Errorf("service-diurnal: offered rates must be positive")
			}
			s, err := newStream("service-diurnal", v.Int(diKeyRange), v.Int(diInitial), v.Int(diSpan), math.MaxInt, v.Str(diMix))
			if err != nil {
				return nil, err
			}
			s.opVals = true
			return &svcDiurnal{svcStream: s, period: uint64(v.Int(diPeriodOps)),
				busy: v.Float(diRateBusy), idle: v.Float(diRateIdle), ripple: v.Float(diRipple)}, nil
		},
	})
	Register(Scenario{
		Name:        "service-slo",
		Family:      "service",
		Description: "SLO-tuning A/B stream: one pinned mix scored under the serving model (capacity vs. throughput-under-SLO)",
		Params:      []Param{sloKeyRange, sloInitial, sloSpan, sloMix},
		Make: func(v Values) (workloads.Workload, error) {
			s, err := newStream("service-slo", v.Int(sloKeyRange), v.Int(sloInitial), v.Int(sloSpan), math.MaxInt, v.Str(sloMix))
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	})
	Register(Scenario{
		Name:        "service-steady",
		Family:      "service",
		Description: "proteusd KV traffic pinned to one mix (no phase shift)",
		Params:      []Param{svcKeyRange, svcInitial, svcSpan, svcMix},
		Make: func(v Values) (workloads.Workload, error) {
			s, err := newStream("service-steady", v.Int(svcKeyRange), v.Int(svcInitial), v.Int(svcSpan), math.MaxInt, v.Str(svcMix))
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	})
}
