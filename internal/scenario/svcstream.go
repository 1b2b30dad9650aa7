package scenario

import (
	"fmt"
	"sync/atomic"

	"repro/internal/shard"
	"repro/internal/tm"
	"repro/internal/workloads"
)

// svcStream is the single-store service stream behind service-kv,
// service-steady, service-slo and service-diurnal: proteusd's key-value
// traffic as a one-shard run of the kernel, so every request is a fenced
// transaction on a serve.Store, the daemon's own data plane. The phase
// schedule shifts the mix at fixed operation counts. Its counter is
// shared across worker slots, so the schedule tracks total served
// traffic the way a loadgen session's wall-clock phases track total
// offered traffic.
type svcStream struct {
	name                    string
	keyRange, initial, span int
	// phases is the schedule; the last phase runs until the budget ends.
	phases []svcPhase
	// opVals makes a put write the operation's number instead of its key.
	opVals bool

	kv  *svcShards
	ops atomic.Uint64
}

// svcPhase is one segment of a schedule: a mix and its length in
// operations.
type svcPhase struct {
	mix workloads.ServiceOpMix
	ops uint64
}

// newStream is scenario's stream: one phase of per operations for each
// named mix, in order.
func newStream(scenario string, keyRange, initial, span, per int, mixes ...string) (*svcStream, error) {
	if err := positive(scenario, keyRange, span, per); err != nil {
		return nil, err
	}
	s := &svcStream{name: scenario, keyRange: keyRange, initial: initial, span: span}
	for _, name := range mixes {
		mix, err := workloads.ServiceMixByName(name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scenario, err)
		}
		s.phases = append(s.phases, svcPhase{mix, uint64(per)})
	}
	return s, nil
}

// Name implements workloads.Workload.
func (s *svcStream) Name() string { return s.name }

// Setup implements workloads.Workload: one store, pre-populated.
func (s *svcStream) Setup(h *tm.Heap, rng *workloads.Rand) (err error) {
	if s.kv, err = newSvcShards(h, rng, 1, shard.New(1), s.keyRange, s.initial); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return nil
}

// phase returns the mix in force at operation count n.
func (s *svcStream) phase(n uint64) workloads.ServiceOpMix {
	for _, p := range s.phases {
		if n < p.ops {
			return p.mix
		}
		n -= p.ops
	}
	return s.phases[len(s.phases)-1].mix
}

// Op implements workloads.Workload: one request under the mix in force.
func (s *svcStream) Op(r workloads.Runner, self int, rng *workloads.Rand) {
	n := s.ops.Add(1)
	mix := s.phase(n - 1)
	k := uint64(rng.Intn(s.keyRange))
	p := rng.Float64()
	if p >= mix.Get+mix.Put+mix.Del+mix.CAS {
		s.kv.retried(r, self, scanOp(k, k+uint64(s.span)))
		return
	}
	val := k
	if s.opVals {
		val = n
	}
	s.kv.retried(r, self, pointOp(mix, p, self, k, val))
}

// Verify implements workloads.Verifier: the kernel's routing invariant,
// which on one shard says that no fence is left held.
func (s *svcStream) Verify(h *tm.Heap) error {
	if err := s.kv.verify(h); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return nil
}

// svcDiurnal is the stream under a diurnal traffic curve: an open-loop
// client population whose offered rate alternates between a busy and an
// idle level (the day/night square wave), with a small ripple on each
// level. The store traffic is a fixed-mix stream; what varies is
// OfferedRate, which the harness's serving model turns into the
// delivered-KPI curve the change monitor watches.
//
// The ripple is the hostile part. It lifts the level by ripple, enough
// that a dwell-free, band-free detector alarms on it once its deviation
// estimate has tightened on the flat level, yet inside the monitor's
// default hysteresis band. A tuner without the dwell/band gates therefore
// burns an exploration phase on every ripple edge; the gated tuner
// re-tunes only on the busy/idle transitions. The scenario's A/B asserts
// that install-count gap.
type svcDiurnal struct {
	*svcStream
	// period is one busy+idle cycle in operations.
	period uint64
	// busy and idle are the offered rates (ops/sec) of the two halves.
	busy, idle float64
	// ripple is the ripple's height, a fraction of the level.
	ripple float64
}

// OfferedRate implements workloads.Rated: the square wave with its
// ripple. Each half of the cycle holds its base level for its first half
// and the rippled level for its second, so every level is flat long
// enough for a detector's deviation estimate to tighten before the next
// edge — the trap that makes an ungated detector churn.
func (s *svcDiurnal) OfferedRate(n uint64) float64 {
	pos, half := n%s.period, s.period/2
	base := s.busy
	if pos >= half {
		base = s.idle
		pos -= half
	}
	if pos >= half/2 {
		base *= 1 + s.ripple
	}
	return base
}
