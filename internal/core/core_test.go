package core_test

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	proteustm "repro"
	"repro/internal/cf"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/rectm"
	"repro/internal/smbo"
	"repro/internal/tm"
)

func testConfigs() []config.Config {
	var out []config.Config
	for _, alg := range []config.AlgID{config.TL2, config.TinySTM, config.NOrec} {
		for _, t := range []int{1, 2, 4} {
			out = append(out, config.Config{Alg: alg, Threads: t})
		}
	}
	out = append(out, config.Config{Alg: config.HTM, Threads: 4, Budget: 4, Policy: htm.PolicyHalve})
	return out
}

func trainFor(cfgs []config.Config) *cf.Matrix {
	prof := machine.Profile{Name: "t", Cores: 4, HWThreads: 4, Sockets: 1, HasHTM: true,
		ThreadCounts: []int{1, 2, 4}, StaticPower: 10, PowerPerThread: 5}
	gen := &perfmodel.Generator{Machine: prof, Seed: 3}
	return gen.Matrix(gen.Workloads(40), cfgs, perfmodel.Throughput)
}

// TestRuntimeOptimizesAndReacts drives the full runtime with a live workload
// whose cost structure flips mid-run; the Monitor must detect the change and
// trigger a second optimization phase.
func TestRuntimeOptimizesAndReacts(t *testing.T) {
	cfgs := testConfigs()
	rt, err := core.New(core.Options{
		HeapWords:       1 << 16,
		MaxThreads:      4,
		Configs:         cfgs,
		TrainKPI:        trainFor(cfgs),
		KPI:             core.Throughput,
		SamplePeriod:    40 * time.Millisecond,
		SettleTime:      20 * time.Millisecond,
		MaxExplorations: 5,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	words := rt.Heap().MustAlloc(256)
	var heavy atomic.Bool
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := uint64(id + 1)
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				slot := tm.Addr(rng % 256)
				if heavy.Load() {
					slot = tm.Addr(rng % 4) // heavy contention
				}
				rt.Atomic(id, func(tx tm.Txn) {
					v := tx.Load(words + slot)
					tx.Store(words+slot, v+1)
					if heavy.Load() {
						for i := tm.Addr(0); i < 32; i++ {
							_ = tx.Load(words + 128 + i)
						}
					}
				})
			}
		}(w)
	}

	rt.Start()
	// Wait for the initial optimization phase to complete (generously: the
	// phase first trains the recommender, on the adapter goroutine and in
	// competition with the four workers above — seconds under -race — and
	// the test may share the machine with parallel benchmark load).
	deadline := time.Now().Add(60 * time.Second)
	for rt.Phases() < 1 || rt.Exploring() {
		if time.Now().After(deadline) {
			t.Fatalf("no initial optimization phase ran")
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(400 * time.Millisecond) // steady-state baseline for CUSUM
	phase1 := rt.Phases()
	heavy.Store(true) // drastic workload change
	deadline = time.Now().Add(10 * time.Second)
	for rt.Phases() <= phase1 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	phase2 := rt.Phases()
	rt.Stop()

	// Unpark workers before joining.
	cfg := rt.Pool.Config()
	cfg.Threads = 4
	if err := rt.Pool.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()

	if phase2 <= phase1 {
		t.Errorf("workload change not detected: phases before=%d after=%d", phase1, phase2)
		for _, pt := range rt.Timeline() {
			t.Logf("t=%6.2fs kpi=%12.0f cfg=%-12s exploring=%v", pt.At.Seconds(), pt.KPI, pt.Config, pt.Exploring)
		}
	}
	if got := len(rt.Timeline()); got == 0 {
		t.Error("no timeline recorded")
	}
}

// TestVirtualClock covers the manual clock used by the deterministic
// harness.
func TestVirtualClock(t *testing.T) {
	base := time.Unix(100, 0)
	c := core.NewVirtualClock(base)
	if !c.Now().Equal(base) {
		t.Fatalf("Now = %v, want %v", c.Now(), base)
	}
	c.Advance(2 * time.Second)
	c.Sleep(time.Second)  // Sleep advances without blocking
	c.Advance(-time.Hour) // negative advances are ignored
	if got := c.Now().Sub(base); got != 3*time.Second {
		t.Fatalf("advanced %v, want 3s", got)
	}
}

// TestExploreSyncIsDeterministic drives the synchronous exploration API
// with a pure measure function twice and requires identical explored
// sequences and installed winners.
func TestExploreSyncIsDeterministic(t *testing.T) {
	cfgs := testConfigs()
	train := trainFor(cfgs)
	kpiOf := func(c config.Config) float64 {
		// A synthetic preference: NOrec scales best, HTM worst.
		base := map[config.AlgID]float64{config.TL2: 2, config.TinySTM: 3, config.NOrec: 5, config.HTM: 1}[c.Alg]
		return base * float64(c.Threads)
	}
	run := func() ([]config.Config, config.Config) {
		rt, err := core.New(core.Options{
			HeapWords: 1 << 12, Configs: cfgs, TrainKPI: train, Seed: 11,
			Clock: core.NewVirtualClock(time.Time{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		var explored []config.Config
		rt.ExploreSync(func(c config.Config) float64 {
			explored = append(explored, c)
			return kpiOf(c)
		})
		return explored, rt.Pool.Config()
	}
	e1, w1 := run()
	e2, w2 := run()
	if len(e1) == 0 {
		t.Fatal("nothing explored")
	}
	if w1 != w2 {
		t.Fatalf("winners differ: %v vs %v", w1, w2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("exploration lengths differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("exploration step %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
	// The winner must be the best explored configuration under kpiOf.
	best := e1[0]
	for _, c := range e1 {
		if kpiOf(c) > kpiOf(best) {
			best = c
		}
	}
	if w1 != best {
		t.Fatalf("installed %v, but best explored was %v", w1, best)
	}
	// Observe/ResetMonitor round-trip: a stable stream raises no alarm.
	rt, err := core.New(core.Options{HeapWords: 1 << 12, Configs: cfgs, TrainKPI: train, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rt.ResetMonitor(100)
	for i := 0; i < 50; i++ {
		if rt.Observe(100) {
			t.Fatal("alarm on a flat KPI stream")
		}
	}
	if len(rt.Configs()) != len(cfgs) {
		t.Fatalf("Configs() returned %d entries", len(rt.Configs()))
	}
}

// TestPinnedSystemNeverTrains: a System opened without auto-tuning, pinned
// by hand and driven with traffic never runs model selection — the
// recommender is the tuner's, and nothing here tunes.
func TestPinnedSystemNeverTrains(t *testing.T) {
	before := core.Trainings()
	sys, err := proteustm.Open(proteustm.WithWorkers(2), proteustm.WithHeapWords(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetConfig(proteustm.Config{Alg: proteustm.NOrec, Threads: 2}); err != nil {
		t.Fatal(err)
	}
	a := sys.MustAlloc(1)
	for i := 0; i < 2; i++ {
		if err := sys.Spawn(func(w *proteustm.Worker) {
			for n := 0; n < 1000; n++ {
				w.Atomic(func(tx proteustm.Txn) { tx.Store(a, tx.Load(a)+1) })
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Wait()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Load(a); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
	if n := core.Trainings() - before; n != 0 {
		t.Fatalf("a pinned System trained %d recommender(s)", n)
	}
}

// TestFirstExploreMatchesEagerTraining: the recommender a fresh Runtime
// builds at its first exploration is the one rectm.Train builds eagerly from
// the same matrix and seed — same boot configuration, and bit-identical
// exploration results, phase after phase.
func TestFirstExploreMatchesEagerTraining(t *testing.T) {
	cfgs := testConfigs()
	train := trainFor(cfgs)
	const seed = 11
	kpiOf := func(c config.Config) float64 {
		return float64(c.Threads)*1.37 + float64(c.Alg)*0.61
	}
	before := core.Trainings()
	rt, err := core.New(core.Options{
		HeapWords: 1 << 12, Configs: cfgs, TrainKPI: train, Seed: seed,
		Clock: core.NewVirtualClock(time.Time{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := core.Trainings() - before; n != 0 {
		t.Fatalf("New trained %d recommender(s)", n)
	}
	rec, err := rectm.Train(train, true, rectm.Options{Seed: seed, Learners: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rt.Pool.Config(), cfgs[rec.RefCol()]; got != want {
		t.Fatalf("booted in %v, the eager recommender's reference is %v", got, want)
	}
	for phase := uint64(1); phase <= 2; phase++ {
		got := rt.ExploreSync(kpiOf)
		want := rec.Optimize(func(i int) float64 { return kpiOf(cfgs[i]) }, nil, smbo.Options{
			Policy: smbo.EI, Stop: smbo.StopCautious, Epsilon: 0.01, MaxExplorations: 10,
			Seed: seed + phase*0x9E3779B97F4A7C15,
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("phase %d: lazy runtime explored %+v, eager recommender %+v", phase, got, want)
		}
	}
	if n := core.Trainings() - before; n != 1 {
		t.Fatalf("two explorations trained %d recommenders, want 1", n)
	}
}

// TestFirstBuildRaces starts the adapter (whose startup phase trains the
// recommender) and immediately races ForceReoptimize, ExploreSync from other
// goroutines and Stop against that first build. Run under -race.
func TestFirstBuildRaces(t *testing.T) {
	cfgs := testConfigs()
	before := core.Trainings()
	rt, err := core.New(core.Options{
		HeapWords: 1 << 12, MaxThreads: 4, Configs: cfgs, TrainKPI: trainFor(cfgs), Seed: 5,
		SamplePeriod: 2 * time.Millisecond, SettleTime: time.Millisecond, MaxExplorations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.ForceReoptimize()
			if res := rt.ExploreSync(func(c config.Config) float64 { return float64(c.Threads) }); res.Best < 0 {
				t.Error("ExploreSync racing the first build recommended nothing")
			}
		}()
	}
	rt.Stop()
	wg.Wait()
	if n := core.Trainings() - before; n != 1 {
		t.Fatalf("trained %d recommenders, want exactly 1", n)
	}
	if rt.Phases() < 4 {
		t.Fatalf("phases = %d, want the startup phase and three synchronous ones", rt.Phases())
	}
}

// TestUntrainableModelKeepsServing: a matrix the normalizer accepts but
// cross-validation cannot score (one row) boots, stays in its reference
// configuration when asked to explore, and logs why.
func TestUntrainableModelKeepsServing(t *testing.T) {
	cfgs := testConfigs()
	one := trainFor(cfgs)
	one.Rows, one.Data = 1, one.Data[:1]
	rt, err := core.New(core.Options{HeapWords: 1 << 12, Configs: cfgs, TrainKPI: one, Seed: 3,
		Clock: core.NewVirtualClock(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	boot := rt.Pool.Config()
	if res := rt.ExploreSync(func(config.Config) float64 { return 1 }); res.Best != -1 || len(res.Explored) != 0 {
		t.Fatalf("explored %+v without a model", res)
	}
	ev := rt.Reconfigurations()
	if len(ev) != 1 || ev[0].From != boot || ev[0].To != boot || !strings.Contains(ev[0].Reason, "no candidate") {
		t.Fatalf("reconfiguration log = %+v", ev)
	}
}
