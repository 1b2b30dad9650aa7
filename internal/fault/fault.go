// Package fault is the deterministic fault-injection substrate behind
// proteusd's chaos testing: a seeded injector that decides, at named
// points on the serving layer's hot paths, whether to simulate a failure
// — a coordinator crash between the prepare and apply phases of a
// cross-shard commit, a coordinator that goes quiet mid-acquire while
// holding fences, a shard whose workers stop making progress, or an
// artificial per-operation latency spike.
//
// The substrate is wired behind nil-checked hooks: a server built without
// an Injector pays one pointer comparison per hook, no allocation and no
// lock, so production cost is zero. With an Injector installed, every
// decision is a pure function of the rule set, the seed and the arrival
// order at each point, which is what makes a chaos run replayable: the
// same schedule against the same request stream injects the same faults.
//
// Rules are written in a small schedule grammar (see Parse):
//
//	point[:shard]@key=value;key=value,...
//
// e.g. `coord-crash@after=3;every=5;count=6,shard-stall:1@after=1500;count=1;stall=1200ms`
// crashes the coordinator on the 4th, 9th, ... prepared cross-shard
// batch (six times total) and stalls shard 1's workers for 1.2s once,
// after their 1500th dequeue.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one instrumented site in the serving layer.
type Point string

const (
	// FenceAcquireStall delays the cross-shard coordinator between two
	// fence acquisitions, so it sits on already-claimed fences looking
	// exactly like a dead coordinator to the failure detector. Arrival
	// unit: one fence acquisition attempt.
	FenceAcquireStall Point = "fence-acquire-stall"
	// CoordCrash kills the coordinator between prepare (all fences
	// acquired, decision recorded) and apply: the client gets a 503 and
	// every participant's fence stays held until the failure detector
	// recovers it. Arrival unit: one prepared cross-shard batch.
	CoordCrash Point = "coord-crash"
	// ShardStall freezes whoever holds one of a shard's slots, stopping
	// its progress while the shard's line of waiting requests keeps
	// growing — the signature the per-shard circuit breaker trips on.
	// Arrival unit: one execution on the shard.
	ShardStall Point = "shard-stall"
	// OpDelay adds an artificial latency spike to one data operation.
	// Arrival unit: one executed operation.
	OpDelay Point = "op-delay"
	// ReshardDonorCrash kills the resharding migrator mid-copy, donor
	// side: the donor's fence stays held over a partially-exported span
	// until the failure detector rolls the migration back: it deletes the
	// partial copy from the recipient, then releases the fence (the
	// placement never flipped, so the donor still serves everything). Both
	// migration directions share the point. Arrival unit: one migration copy batch; the shard filter
	// matches the donor's index (the fleet's top shard for a merge).
	ReshardDonorCrash Point = "reshard-donor-crash"
	// ReshardInstallCrash kills the migrator after the span is fully
	// installed on the recipient but before the placement flips: same
	// rollback as ReshardDonorCrash. Arrival unit: one
	// completed span copy about to flip.
	ReshardInstallCrash Point = "reshard-install-crash"
)

// points is the closed set of valid fault points.
var points = map[Point]bool{
	FenceAcquireStall: true, CoordCrash: true, ShardStall: true, OpDelay: true,
	ReshardDonorCrash: true, ReshardInstallCrash: true,
}

// Rule arms one fault point. A rule fires when an arrival at its point
// (optionally filtered to one shard) passes its trigger: skip the first
// After arrivals, then fire every Every-th arrival (default 1), at most
// Count times (0 = unlimited); a non-zero Prob replaces the modular
// trigger with a seeded coin flip. Delay is the injected pause for the
// stall/delay points (ignored by CoordCrash, whose action is the crash
// itself).
type Rule struct {
	Point Point
	// Shard filters arrivals to one shard index; -1 (the default from
	// Parse when no ":shard" suffix is given) matches every shard and
	// the shard-agnostic coordinator points.
	Shard int
	After uint64
	Every uint64
	Count uint64
	Prob  float64
	Delay time.Duration
}

// ruleState is one armed rule plus its arrival/fire counters.
type ruleState struct {
	Rule
	arrivals uint64
	fires    uint64
}

// Injector is a set of armed rules sharing one seeded random stream. All
// methods are safe for concurrent use; a nil *Injector is a valid no-op
// injector (every Fire reports false).
type Injector struct {
	mu    sync.Mutex
	rng   uint64
	rules []*ruleState
}

// NewInjector builds an injector with the given seed and rules.
func NewInjector(seed uint64, rules ...Rule) *Injector {
	inj := &Injector{rng: seed | 1}
	for _, r := range rules {
		inj.Add(r)
	}
	return inj
}

// Add arms one more rule.
func (inj *Injector) Add(r Rule) {
	if r.Every == 0 {
		r.Every = 1
	}
	inj.mu.Lock()
	inj.rules = append(inj.rules, &ruleState{Rule: r})
	inj.mu.Unlock()
}

// next is a splitmix64 step on the injector's seeded stream (used only by
// probabilistic rules, so modular schedules stay exactly reproducible).
func (inj *Injector) next() float64 {
	inj.rng += 0x9E3779B97F4A7C15
	z := inj.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// Fire records one arrival at point p on shard (pass -1 for the
// shard-agnostic coordinator points) and reports whether any rule fires,
// with the longest configured Delay among the firing rules. The caller
// owns the action semantics: sleep for stall/delay points, abandon the
// protocol for CoordCrash.
func (inj *Injector) Fire(p Point, shard int) (time.Duration, bool) {
	if inj == nil {
		return 0, false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var d time.Duration
	fired := false
	for _, rs := range inj.rules {
		if rs.Point != p {
			continue
		}
		if rs.Shard >= 0 && shard >= 0 && rs.Shard != shard {
			continue
		}
		rs.arrivals++
		if rs.Count > 0 && rs.fires >= rs.Count {
			continue
		}
		if rs.arrivals <= rs.After {
			continue
		}
		if rs.Prob > 0 {
			if inj.next() >= rs.Prob {
				continue
			}
		} else if (rs.arrivals-rs.After-1)%rs.Every != 0 {
			continue
		}
		rs.fires++
		fired = true
		if rs.Delay > d {
			d = rs.Delay
		}
	}
	return d, fired
}

// Fired totals the fires of every rule armed on point p.
func (inj *Injector) Fired(p Point) uint64 {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var n uint64
	for _, rs := range inj.rules {
		if rs.Point == p {
			n += rs.fires
		}
	}
	return n
}

// Snapshot returns per-rule fire counts keyed "point" or "point:shard",
// summed across rules sharing a key — the /statusz faults block.
func (inj *Injector) Snapshot() map[string]uint64 {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]uint64, len(inj.rules))
	for _, rs := range inj.rules {
		k := string(rs.Point)
		if rs.Shard >= 0 {
			k = fmt.Sprintf("%s:%d", rs.Point, rs.Shard)
		}
		out[k] += rs.fires
	}
	return out
}

// String renders the armed schedule back in the Parse grammar (rules in
// arming order), for logs.
func (inj *Injector) String() string {
	if inj == nil {
		return ""
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	parts := make([]string, 0, len(inj.rules))
	for _, rs := range inj.rules {
		parts = append(parts, rs.Rule.String())
	}
	return strings.Join(parts, ",")
}

// String renders one rule in the Parse grammar.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(string(r.Point))
	if r.Shard >= 0 {
		fmt.Fprintf(&b, ":%d", r.Shard)
	}
	var kv []string
	if r.After > 0 {
		kv = append(kv, fmt.Sprintf("after=%d", r.After))
	}
	if r.Every > 1 {
		kv = append(kv, fmt.Sprintf("every=%d", r.Every))
	}
	if r.Count > 0 {
		kv = append(kv, fmt.Sprintf("count=%d", r.Count))
	}
	if r.Prob > 0 {
		kv = append(kv, fmt.Sprintf("prob=%g", r.Prob))
	}
	if r.Delay > 0 {
		kv = append(kv, fmt.Sprintf("stall=%s", r.Delay))
	}
	if len(kv) > 0 {
		b.WriteByte('@')
		b.WriteString(strings.Join(kv, ";"))
	}
	return b.String()
}

// Parse builds an injector from a comma-separated schedule in the
// grammar `point[:shard]@key=value;key=value`. Keys: after, every, count
// (uint), prob (float in (0,1]), stall or delay (a Go duration). An empty
// spec returns a nil injector (the no-op).
func Parse(spec string, seed uint64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := NewInjector(seed)
	for _, raw := range strings.Split(spec, ",") {
		r, err := parseRule(strings.TrimSpace(raw))
		if err != nil {
			return nil, err
		}
		inj.Add(r)
	}
	return inj, nil
}

// Points lists the valid fault-point names, sorted (for error messages
// and --help text).
func Points() []string {
	out := make([]string, 0, len(points))
	for p := range points {
		out = append(out, string(p))
	}
	sort.Strings(out)
	return out
}

func parseRule(raw string) (Rule, error) {
	r := Rule{Shard: -1, Every: 1}
	head, params, hasParams := strings.Cut(raw, "@")
	name, shard, hasShard := strings.Cut(head, ":")
	r.Point = Point(name)
	if !points[r.Point] {
		return r, fmt.Errorf("fault: unknown point %q (have: %s)", name, strings.Join(Points(), ", "))
	}
	if hasShard {
		v, err := strconv.Atoi(shard)
		if err != nil || v < 0 {
			return r, fmt.Errorf("fault: rule %q: bad shard %q", raw, shard)
		}
		r.Shard = v
	}
	if !hasParams {
		return r, nil
	}
	for _, kv := range strings.Split(params, ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return r, fmt.Errorf("fault: rule %q: want key=value, got %q", raw, kv)
		}
		var err error
		switch k {
		case "after":
			r.After, err = strconv.ParseUint(v, 10, 64)
		case "every":
			r.Every, err = strconv.ParseUint(v, 10, 64)
			if err == nil && r.Every == 0 {
				err = fmt.Errorf("must be >= 1")
			}
		case "count":
			r.Count, err = strconv.ParseUint(v, 10, 64)
		case "prob":
			r.Prob, err = strconv.ParseFloat(v, 64)
			if err == nil && (r.Prob <= 0 || r.Prob > 1) {
				err = fmt.Errorf("want (0,1]")
			}
		case "stall", "delay":
			r.Delay, err = time.ParseDuration(v)
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return r, fmt.Errorf("fault: rule %q: parameter %q: %v", raw, kv, err)
		}
	}
	return r, nil
}
