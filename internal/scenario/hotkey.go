package scenario

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/tm"
	"repro/internal/workloads"
)

// ServiceHotKey is the hostile-traffic twin of a cache stampede: most
// operations hammer a small Zipf-distributed window of keys whose head
// slides across the key space every MoveEvery operations, so whichever
// shard owns the current head absorbs a disproportionate share of the
// traffic — until the head moves and the hot spot lands somewhere else.
//
// Like ServiceRange, the operation stream (which keys, which ops, which
// scan spans) is a pure function of the seed and independent of the
// partitioner, so the scenario replays the identical hostile sequence
// under hash and range placement. The placement-dependent observable is
// locality: under range placement the Zipf window is contiguous, so the
// hot spot stays on one shard between head moves (few owner switches,
// concentrated load); under hashing it scatters across all shards every
// draw (many owner switches, diluted load). Metrics records both.
type ServiceHotKey struct {
	// Partitioner is the placement policy: shard.KindHash or
	// shard.KindRange.
	Partitioner string
	// Shards is the number of key-space shards.
	Shards int
	// KeyRange bounds the keys and sizes the range partitioner's
	// universe.
	KeyRange int
	// InitialSize pre-populates the stores (0 = KeyRange/2).
	InitialSize int
	// HotSpan is the width of the Zipf window (at most KeyRange).
	HotSpan int
	// HotFrac is the probability an operation draws its key from the
	// Zipf window instead of uniformly.
	HotFrac float64
	// Theta is the Zipf exponent (higher = more skewed).
	Theta float64
	// MoveEvery slides the window head every N operations, by KeyRange/7
	// (coprime-ish with the shard count so the hot spot visits them all).
	MoveEvery int
	// Mix is the operation mix name.
	Mix string
	// Span is the width of a range scan.
	Span int
	// BatchEvery makes every Nth operation a cross-shard batch put
	// through the fence protocol (0 disables).
	BatchEvery int
	// BatchKeys is the batch width.
	BatchKeys int

	kv  *svcShards
	ops atomic.Uint64
	mix workloads.ServiceOpMix

	// cum is the precomputed cumulative Zipf weight table over the
	// window's ranks; sampling is one Float64 draw plus a binary search,
	// so the draw count per op is rank-independent.
	cum []float64

	// Locality counters (see Metrics).
	hotOps, uniformOps, headMoves  atomic.Uint64
	ownerSwitches, scanTotal       atomic.Uint64
	scanFencedShards, crossBatches atomic.Uint64
	lastOwner                      atomic.Int64
}

// Name implements workloads.Workload.
func (s *ServiceHotKey) Name() string { return "service-hotkey" }

// Setup implements workloads.Workload: it builds the partitioner, the kernel store
// and the cumulative Zipf table, and pre-populates each shard with the
// keys it owns.
func (s *ServiceHotKey) Setup(h *tm.Heap, rng *workloads.Rand) error {
	if err := positive("service-hotkey", s.HotSpan, s.MoveEvery); err != nil {
		return err
	}
	var err error
	if s.kv, s.mix, err = newPartitioned("service-hotkey", h, rng, s.Partitioner, s.Mix, s.Shards, s.KeyRange, s.InitialSize, s.BatchKeys); err != nil {
		return err
	}
	s.cum = make([]float64, min(s.HotSpan, s.KeyRange))
	total := 0.0
	for i := range s.cum {
		total += 1 / math.Pow(float64(i+1), s.Theta)
		s.cum[i] = total
	}
	s.lastOwner.Store(-1)
	return nil
}

// head returns the Zipf window head at global operation count n.
func (s *ServiceHotKey) head(n uint64) uint64 {
	moves := n / uint64(s.MoveEvery)
	return (moves * uint64(max(s.KeyRange/7, 1))) % uint64(s.KeyRange)
}

// zipfRank draws one rank in [0, HotSpan) from the precomputed table.
func (s *ServiceHotKey) zipfRank(rng *workloads.Rand) int {
	u := rng.Float64() * s.cum[len(s.cum)-1]
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Metrics implements workloads.Metered. owner_switches counts consecutive hot-key
// operations that landed on different shards — the dilution observable
// the partitioner A/B compares: hashing scatters the contiguous Zipf
// window (many switches), range placement keeps the hot spot on the
// head's owner between moves (few switches).
func (s *ServiceHotKey) Metrics() map[string]uint64 {
	return map[string]uint64{
		"hot_ops":            s.hotOps.Load(),
		"uniform_ops":        s.uniformOps.Load(),
		"head_moves":         s.headMoves.Load(),
		"owner_switches":     s.ownerSwitches.Load(),
		"scan_total":         s.scanTotal.Load(),
		"scan_fenced_shards": s.scanFencedShards.Load(),
		"cross_batches":      s.crossBatches.Load(),
	}
}

// Op implements workloads.Workload: one service request whose key is Zipf-drawn
// from the moving window with probability HotFrac, uniform otherwise.
// Every rng draw happens before any partitioner-dependent branching, so
// the operation stream is identical across partitioners.
func (s *ServiceHotKey) Op(r workloads.Runner, self int, rng *workloads.Rand) {
	n := s.ops.Add(1)
	if s.BatchEvery > 0 && n%uint64(s.BatchEvery) == 0 {
		if crossPut(r, self, rng, s.kv, n, s.BatchKeys, s.KeyRange) {
			s.crossBatches.Add(1)
		}
		return
	}
	if n%uint64(s.MoveEvery) == 0 {
		s.headMoves.Add(1)
	}
	var k uint64
	hot := rng.Float64() < s.HotFrac
	if hot {
		rank := s.zipfRank(rng)
		k = (s.head(n) + uint64(rank)) % uint64(s.KeyRange)
		s.hotOps.Add(1)
	} else {
		k = uint64(rng.Intn(s.KeyRange))
		s.uniformOps.Add(1)
	}
	p := rng.Float64()
	if hot {
		o := int64(s.kv.place.Load().part.Owner(k))
		if prev := s.lastOwner.Swap(o); prev >= 0 && prev != o {
			s.ownerSwitches.Add(1)
		}
	}
	if p < s.mix.Get+s.mix.Put+s.mix.Del+s.mix.CAS {
		s.kv.retried(r, self, pointOp(s.mix, p, self, k, n))
		return
	}
	s.scanTotal.Add(1)
	if parts := scan(r, self, s.kv, n, k, k+uint64(s.Span)); len(parts) > 1 {
		s.scanFencedShards.Add(uint64(len(parts)))
	}
}

// Verify implements workloads.Verifier: every key must live in the store of the
// shard the active partitioner owns it with, and no fence may be left
// held.
func (s *ServiceHotKey) Verify(h *tm.Heap) error {
	if err := s.kv.verify(h); err != nil {
		return fmt.Errorf("service-hotkey: %w", err)
	}
	return nil
}
