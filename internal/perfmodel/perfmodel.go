// Package perfmodel generates synthetic-but-realistic KPI surfaces for the
// trace-driven experiments (Figs. 4–7 of the paper). The authors replayed
// traces of real executions of ~300 workloads across their configuration
// spaces; those traces do not exist here, so this package substitutes an
// analytic TM performance model that preserves the structure the recommender
// exploits:
//
//   - workloads fall into archetypes (HTM-friendly short transactions,
//     read-dominated long transactions, contended writers, NUMA-averse,
//     service-style) whose optimal configurations differ along every tuned
//     dimension;
//   - absolute KPI scales differ across workloads by orders of magnitude
//     (the heterogeneity that motivates rating distillation);
//   - per-(workload, configuration) measurement noise is small,
//     multiplicative and deterministic, so experiments are reproducible.
//
// The per-algorithm cost model mirrors the published trade-offs: TL2 pays
// commit-time validation proportional to the read set; TinySTM reads more
// cheaply and survives long read-only transactions (timestamp extension);
// NOrec has the cheapest accesses but serializes writer commits on its
// global lock; SwissTM's mixed detection and contention manager shine on
// long mixed workloads; simulated HTM is nearly free per access but capacity
// overflows push it to a serializing fallback, modulated by the retry budget
// and capacity policy.
package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cf"
	"repro/internal/config"
	"repro/internal/htm"
	"repro/internal/machine"
)

// KPIKind selects which key performance indicator the model reports — the
// three KPIs of §6.1.
type KPIKind int

const (
	// Throughput is committed transactions per second (maximize).
	Throughput KPIKind = iota
	// ExecTime is the time to complete a fixed batch (minimize).
	ExecTime
	// EDP is the energy-delay product of the fixed batch (minimize).
	EDP
)

// String names the KPI.
func (k KPIKind) String() string {
	switch k {
	case Throughput:
		return "throughput"
	case ExecTime:
		return "exec-time"
	case EDP:
		return "edp"
	}
	return "?"
}

// HigherIsBetter reports the KPI's orientation.
func (k KPIKind) HigherIsBetter() bool { return k == Throughput }

// Archetype labels a workload family.
type Archetype int

const (
	// ShortTxScalable: data-structure-like tiny transactions, fits HTM.
	ShortTxScalable Archetype = iota
	// ShortTxContended: tiny transactions with hot spots.
	ShortTxContended
	// LongReadMostly: genome/vacation-like long read-dominated.
	LongReadMostly
	// LongWriteHeavy: labyrinth/yada-like bulk writers.
	LongWriteHeavy
	// ServiceStyle: memcached-like, much non-transactional work.
	ServiceStyle
	// OLTPStyle: tpcc-like mixes.
	OLTPStyle

	numArchetypes = int(OLTPStyle) + 1
)

// String names the archetype.
func (a Archetype) String() string {
	switch a {
	case ShortTxScalable:
		return "short-scalable"
	case ShortTxContended:
		return "short-contended"
	case LongReadMostly:
		return "long-read-mostly"
	case LongWriteHeavy:
		return "long-write-heavy"
	case ServiceStyle:
		return "service"
	case OLTPStyle:
		return "oltp"
	}
	return "?"
}

// Workload is one synthetic workload: the parameters of the analytic model.
// The fields double as the "workload characterization" features consumed by
// the ML baselines of Fig. 7.
type Workload struct {
	ID        int
	Archetype Archetype

	// TxWork is the intrinsic in-transaction computation (abstract µs).
	TxWork float64
	// NonTxWork is the computation between transactions (abstract µs).
	NonTxWork float64
	// ReadSet and WriteSet are mean accesses per transaction.
	ReadSet, WriteSet float64
	// ReadOnlyFrac is the fraction of read-only transactions.
	ReadOnlyFrac float64
	// Contention is the conflict intensity coefficient (0..1).
	Contention float64
	// HTMFit is the fraction of transactions whose footprint fits the
	// speculative capacity.
	HTMFit float64
	// ParallelFrac is the Amdahl parallel fraction of the application.
	ParallelFrac float64
	// MemBound is the memory-boundedness (NUMA sensitivity, 0..1).
	MemBound float64
	// Scale is the workload-specific KPI magnitude multiplier; it spans
	// orders of magnitude across workloads (log-uniform), producing the
	// scale heterogeneity of §5.1.
	Scale float64

	seed uint64
}

// Generator produces workloads and their KPI surfaces on one machine.
type Generator struct {
	Machine machine.Profile
	Seed    uint64
}

// FamilySize is the number of workload variants generated per application
// family. The paper's ~300 workloads come from 15 applications exercised
// with different inputs and parameters; mirroring that structure (rather
// than sampling 300 unrelated parameter vectors) is what gives CF the
// cross-workload similarity it mines.
const FamilySize = 10

// Workloads samples n workloads organized in application families: each
// family fixes a base parameter vector drawn from its archetype, and its
// variants perturb the parameters (different inputs) and the KPI scale.
func (g *Generator) Workloads(n int) []Workload {
	out := make([]Workload, n)
	nFamilies := (n + FamilySize - 1) / FamilySize
	for f := 0; f < nFamilies; f++ {
		base := g.sample(f*FamilySize, Archetype(f%numArchetypes))
		for v := 0; v < FamilySize; v++ {
			id := f*FamilySize + v
			if id >= n {
				break
			}
			out[id] = g.variant(base, id, v)
		}
	}
	return out
}

// variant derives workload variant v of a family from its base parameters:
// inputs perturb the workload moderately and shift its absolute scale.
func (g *Generator) variant(base Workload, id, v int) Workload {
	w := base
	w.ID = id
	r := newRNG(g.Seed ^ uint64(id)*0xD1B54A32D192ED03 ^ 0x94D049BB133111EB)
	w.seed = r.next()
	if v == 0 {
		return w
	}
	perturb := func(x, frac float64) float64 { return x * r.uniform(1-frac, 1+frac) }
	clamp01 := func(x float64) float64 { return math.Min(1, math.Max(0, x)) }
	w.TxWork = perturb(w.TxWork, 0.35)
	w.NonTxWork = perturb(w.NonTxWork, 0.35)
	w.ReadSet = perturb(w.ReadSet, 0.3)
	w.WriteSet = perturb(w.WriteSet, 0.3)
	w.ReadOnlyFrac = clamp01(perturb(w.ReadOnlyFrac+0.01, 0.25))
	w.Contention = perturb(w.Contention, 0.4)
	w.HTMFit = clamp01(perturb(w.HTMFit+0.01, 0.15))
	w.ParallelFrac = clamp01(perturb(w.ParallelFrac, 0.05))
	w.MemBound = clamp01(perturb(w.MemBound+0.01, 0.3))
	w.Scale = perturb(w.Scale, 0.5) * r.logUniform(0.5, 2)
	return w
}

// sample draws one workload's parameters from its archetype's ranges.
func (g *Generator) sample(id int, a Archetype) Workload {
	r := newRNG(g.Seed ^ uint64(id)*0x9E3779B97F4A7C15 ^ 0xD1B54A32D192ED03)
	w := Workload{ID: id, Archetype: a, seed: r.next()}
	switch a {
	case ShortTxScalable:
		w.TxWork = r.logUniform(0.05, 0.4)
		w.NonTxWork = r.logUniform(0.02, 0.2)
		w.ReadSet = r.uniform(4, 24)
		w.WriteSet = r.uniform(1, 5)
		w.ReadOnlyFrac = r.uniform(0.4, 0.9)
		w.Contention = r.uniform(0.002, 0.03)
		w.HTMFit = r.uniform(0.93, 1.0)
		w.ParallelFrac = r.uniform(0.95, 1.0)
		w.MemBound = r.uniform(0.0, 0.3)
	case ShortTxContended:
		w.TxWork = r.logUniform(0.05, 0.5)
		w.NonTxWork = r.logUniform(0.02, 0.3)
		w.ReadSet = r.uniform(4, 30)
		w.WriteSet = r.uniform(2, 10)
		w.ReadOnlyFrac = r.uniform(0.0, 0.4)
		w.Contention = r.uniform(0.08, 0.4)
		w.HTMFit = r.uniform(0.85, 1.0)
		w.ParallelFrac = r.uniform(0.8, 0.98)
		w.MemBound = r.uniform(0.0, 0.4)
	case LongReadMostly:
		w.TxWork = r.logUniform(1, 15)
		w.NonTxWork = r.logUniform(0.1, 2)
		w.ReadSet = r.uniform(80, 600)
		w.WriteSet = r.uniform(2, 25)
		w.ReadOnlyFrac = r.uniform(0.6, 0.95)
		w.Contention = r.uniform(0.005, 0.08)
		w.HTMFit = r.uniform(0.0, 0.35)
		w.ParallelFrac = r.uniform(0.9, 1.0)
		w.MemBound = r.uniform(0.2, 0.7)
	case LongWriteHeavy:
		w.TxWork = r.logUniform(2, 30)
		w.NonTxWork = r.logUniform(0.1, 1)
		w.ReadSet = r.uniform(50, 300)
		w.WriteSet = r.uniform(40, 250)
		w.ReadOnlyFrac = r.uniform(0.0, 0.2)
		w.Contention = r.uniform(0.05, 0.35)
		w.HTMFit = r.uniform(0.0, 0.1)
		w.ParallelFrac = r.uniform(0.6, 0.95)
		w.MemBound = r.uniform(0.3, 0.8)
	case ServiceStyle:
		w.TxWork = r.logUniform(0.03, 0.2)
		w.NonTxWork = r.logUniform(0.3, 3)
		w.ReadSet = r.uniform(3, 15)
		w.WriteSet = r.uniform(1, 6)
		w.ReadOnlyFrac = r.uniform(0.5, 0.95)
		w.Contention = r.uniform(0.001, 0.05)
		w.HTMFit = r.uniform(0.9, 1.0)
		w.ParallelFrac = r.uniform(0.97, 1.0)
		w.MemBound = r.uniform(0.1, 0.5)
	case OLTPStyle:
		w.TxWork = r.logUniform(0.5, 6)
		w.NonTxWork = r.logUniform(0.05, 0.5)
		w.ReadSet = r.uniform(30, 200)
		w.WriteSet = r.uniform(10, 80)
		w.ReadOnlyFrac = r.uniform(0.05, 0.5)
		w.Contention = r.uniform(0.02, 0.2)
		w.HTMFit = r.uniform(0.1, 0.7)
		w.ParallelFrac = r.uniform(0.8, 0.99)
		w.MemBound = r.uniform(0.2, 0.6)
	}
	w.Scale = r.logUniform(0.01, 100) // 4 orders of magnitude across workloads
	return w
}

// algCosts are the per-algorithm access/commit cost coefficients (abstract
// time units per access).
type algCosts struct {
	read, write      float64
	commitPerRead    float64
	commitPerWrite   float64
	commitFixed      float64
	conflictFactor   float64
	serialCommitFrac float64 // fraction of commit work under a global lock
}

func costsFor(alg config.AlgID) algCosts {
	switch alg {
	case config.TL2:
		return algCosts{read: 0.012, write: 0.008, commitPerRead: 0.004, commitPerWrite: 0.018, commitFixed: 0.03, conflictFactor: 1.0}
	case config.TinySTM:
		return algCosts{read: 0.009, write: 0.014, commitPerRead: 0.003, commitPerWrite: 0.010, commitFixed: 0.03, conflictFactor: 0.8}
	case config.NOrec:
		return algCosts{read: 0.006, write: 0.005, commitPerRead: 0.002, commitPerWrite: 0.012, commitFixed: 0.02, conflictFactor: 0.65, serialCommitFrac: 1.0}
	case config.SwissTM:
		return algCosts{read: 0.010, write: 0.012, commitPerRead: 0.003, commitPerWrite: 0.012, commitFixed: 0.035, conflictFactor: 0.55}
	case config.HTM:
		return algCosts{read: 0.001, write: 0.001, commitPerWrite: 0.0, commitFixed: 0.015, conflictFactor: 1.4}
	case config.Hybrid:
		return algCosts{read: 0.002, write: 0.002, commitPerWrite: 0.002, commitFixed: 0.02, conflictFactor: 1.6, serialCommitFrac: 1.0}
	case config.GlobalLock:
		return algCosts{commitFixed: 0.005}
	}
	return algCosts{}
}

// KPI returns the deterministic modeled KPI of workload w under cfg.
func (g *Generator) KPI(w Workload, cfg config.Config, kind KPIKind) float64 {
	x, util := g.throughput(w, cfg)
	noise := kpiNoise(w.seed, cfg, g.Seed)
	x *= noise
	switch kind {
	case Throughput:
		return x * w.Scale
	case ExecTime:
		// Time to push a fixed batch of 1e6 transactions, in seconds;
		// Scale shifts the batch size across workloads.
		return 1e6 / (x * w.Scale)
	case EDP:
		t := 1e6 / (x * w.Scale)
		p := g.Machine.StaticPower + g.Machine.PowerPerThread*float64(cfg.Threads)*util
		return p * t * t
	}
	return math.NaN()
}

// throughput returns (transactions per abstract second, useful-work
// utilization) for the configuration.
func (g *Generator) throughput(w Workload, cfg config.Config) (float64, float64) {
	t := float64(cfg.Threads)
	c := costsFor(cfg.Alg)
	m := g.Machine

	// Per-attempt transaction cost (abstract µs).
	writerFrac := 1 - w.ReadOnlyFrac
	accessCost := w.ReadSet*c.read + w.WriteSet*c.write*writerFrac
	commitCost := c.commitFixed + w.ReadSet*c.commitPerRead + w.WriteSet*c.commitPerWrite*writerFrac
	txCost := w.TxWork + accessCost + commitCost

	// NUMA penalty: crossing sockets inflates every shared access.
	perSocket := float64(m.HWThreads) / float64(m.Sockets)
	if t > perSocket {
		cross := (t - perSocket) / t
		txCost *= 1 + w.MemBound*2.2*cross
	}
	// Hyper-threading: threads beyond physical cores contribute less.
	effThreads := t
	if t > float64(m.Cores) && m.Cores < m.HWThreads {
		effThreads = float64(m.Cores) + (t-float64(m.Cores))*0.55
	}

	// Conflict probability per attempt grows with concurrency and
	// footprint.
	footprint := (w.WriteSet + 0.15*w.ReadSet) / 50
	pc := 1 - math.Exp(-w.Contention*c.conflictFactor*(t-1)*footprint)
	if pc > 0.95 {
		pc = 0.95
	}
	pc *= writerFrac // read-only transactions rarely abort

	serialFrac := 0.0
	wastedPerTx := 0.0
	switch {
	case cfg.Alg == config.GlobalLock:
		serialFrac = txCost / (txCost + w.NonTxWork)
		pc = 0
	case cfg.Alg == config.HTM || cfg.Alg == config.Hybrid:
		budget := cfg.Budget
		if budget < 1 {
			budget = 1
		}
		// Transactions that overflow capacity always fall back after
		// burning policy-dependent attempts.
		var wastedCap float64
		switch cfg.Policy {
		case htm.PolicyGiveUp:
			wastedCap = 1
		case htm.PolicyHalve:
			wastedCap = math.Log2(float64(budget)) + 1
		default: // decrease
			wastedCap = float64(budget)
		}
		if wastedCap > float64(budget) {
			wastedCap = float64(budget)
		}
		overflow := 1 - w.HTMFit
		// Conflicting transactions exhaust the budget with prob pc^budget.
		conflictFallback := math.Pow(pc, float64(budget))
		fallbackFrac := overflow + (1-overflow)*conflictFallback
		// Fallback runs serialized; its execution is uninstrumented.
		glCost := w.TxWork + 0.004*(w.ReadSet+w.WriteSet)
		serialFrac = fallbackFrac * glCost / (txCost + w.NonTxWork)
		wastedPerTx = overflow*wastedCap*txCost*0.6 +
			(1-overflow)*(pc/(1-pc))*txCost*0.5
	default:
		// STM: aborted attempts cost roughly half a transaction.
		wastedPerTx = (pc / (1 - pc)) * txCost * 0.55
		// NOrec/Hybrid writer commits serialize on the global lock.
		if c.serialCommitFrac > 0 {
			serialFrac = writerFrac * commitCost * c.serialCommitFrac / (txCost + w.NonTxWork)
		}
	}

	perTx := txCost + w.NonTxWork + wastedPerTx

	// Amdahl-style scaling over the application's parallel fraction plus
	// the algorithm-induced serial fraction.
	s := (1 - w.ParallelFrac) + serialFrac
	if s > 1 {
		s = 1
	}
	speedup := 1 / (s + (1-s)/effThreads)
	x := speedup / perTx * 1e6 / 1e6 // transactions per abstract µs → Mtx/s scale
	x *= 1e6                         // express as tx/s

	util := (txCost + w.NonTxWork) / perTx
	return x, util
}

// Features returns the 17-feature workload characterization consumed by the
// ML baselines (Fig. 7): the measurable workload properties plus contention
// -management-relevant observables, with mild multiplicative observation
// noise (profiling is never exact).
func (w Workload) Features() []float64 {
	r := newRNG(w.seed ^ 0xA5A5A5A5DEADBEEF)
	// Profiled workload characteristics carry substantial observation
	// noise (±15 %): contention or capacity-fit rates measured over a
	// short profiling window are far from exact.
	noisy := func(v float64) float64 { return v * (1 + 0.15*(r.uniform(0, 2)-1)) }
	rwRatio := w.ReadSet / math.Max(w.WriteSet, 0.5)
	txLen := w.TxWork + 0.01*(w.ReadSet+w.WriteSet)
	return []float64{
		noisy(txLen),          // 1 transaction duration
		noisy(w.NonTxWork),    // 2 non-transactional work
		noisy(w.ReadSet),      // 3 read-set size
		noisy(w.WriteSet),     // 4 write-set size
		noisy(rwRatio),        // 5 read/write ratio
		noisy(w.ReadOnlyFrac), // 6 read-only fraction
		noisy(w.Contention),   // 7 data contention
		noisy(w.HTMFit),       // 8 capacity-fit fraction
		noisy(1 - w.HTMFit),   // 9 capacity-abort rate proxy
		noisy(w.ParallelFrac), // 10 parallel fraction
		noisy(w.MemBound),     // 11 memory-boundedness
		noisy(txLen / (txLen + w.NonTxWork + 1e-9)),         // 12 tx time share
		noisy(w.Contention * w.WriteSet),                    // 13 write contention product
		noisy(w.ReadSet + w.WriteSet),                       // 14 total footprint
		noisy(w.Contention * (1 - w.ReadOnlyFrac)),          // 15 writer conflict pressure
		noisy(w.WriteSet / (w.ReadSet + w.WriteSet + 1e-9)), // 16 write share
		noisy(txLen * w.Contention),                         // 17 conflict window
	}
}

// Matrix builds the full ground-truth KPI matrix of the given workloads over
// the machine's configuration space.
func (g *Generator) Matrix(ws []Workload, cfgs []config.Config, kind KPIKind) *cf.Matrix {
	m := cf.NewMatrix(len(ws), len(cfgs))
	for u, w := range ws {
		for i, cfg := range cfgs {
			m.Data[u][i] = g.KPI(w, cfg, kind)
		}
	}
	return m
}

// SyntheticTraining builds a training Utility Matrix for the given
// configuration space from the analytic model — the substitute for
// profiling a base set of applications offline (`proteusbench sweep`
// produces the measured alternative). The modeled machine is derived from
// the space itself: one core per thread of its largest configuration, and
// the space's thread counts.
func SyntheticTraining(cfgs []config.Config, numWorkloads int, seed uint64) *cf.Matrix {
	threadSet := map[int]bool{}
	maxThreads := 1
	for _, c := range cfgs {
		threadSet[c.Threads] = true
		maxThreads = max(maxThreads, c.Threads)
	}
	threads := make([]int, 0, len(threadSet))
	for t := range threadSet {
		threads = append(threads, t)
	}
	sort.Ints(threads)
	gen := &Generator{Machine: machine.Profile{
		Name:           "local",
		Cores:          maxThreads,
		HWThreads:      maxThreads,
		Sockets:        1,
		HasHTM:         true,
		ThreadCounts:   threads,
		StaticPower:    18,
		PowerPerThread: 6.5,
	}, Seed: seed}
	return gen.Matrix(gen.Workloads(numWorkloads), cfgs, Throughput)
}

// kpiNoise returns the deterministic multiplicative measurement noise for a
// (workload, configuration) pair: lognormal with σ ≈ 3 %.
func kpiNoise(wseed uint64, cfg config.Config, gseed uint64) float64 {
	r := newRNG(wseed ^ uint64(cfg.Key())*0xBF58476D1CE4E5B9 ^ gseed)
	// Approximate a standard normal from 4 uniforms (CLT is plenty here).
	z := r.uniform(0, 1) + r.uniform(0, 1) + r.uniform(0, 1) + r.uniform(0, 1)
	z = (z - 2) * math.Sqrt(3)
	return math.Exp(0.03 * z)
}

// --- deterministic PRNG --------------------------------------------------------

type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x106689D45497FDB5
	}
	r := &rng{s: seed}
	r.next()
	r.next()
	return r
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

func (r *rng) uniform(lo, hi float64) float64 {
	u := float64(r.next()>>11) / float64(1<<53)
	return lo + u*(hi-lo)
}

func (r *rng) logUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic(fmt.Sprintf("perfmodel: bad logUniform range [%g,%g]", lo, hi))
	}
	return math.Exp(r.uniform(math.Log(lo), math.Log(hi)))
}
