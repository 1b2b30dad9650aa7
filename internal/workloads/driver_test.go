package workloads_test

import (
	"testing"
	"time"

	"repro/internal/stm"
	"repro/internal/tm"
	"repro/internal/workloads"
)

// TestDriverLifecycle covers start/stop/measure and error paths.
func TestDriverLifecycle(t *testing.T) {
	h := tm.NewHeap(1<<16, 2)
	wl := &workloads.HashMap{Buckets: 64, KeyRange: 256, InitialSize: 32}
	if err := wl.Setup(h, workloads.NewRand(4)); err != nil {
		t.Fatal(err)
	}
	d := &workloads.Driver{
		Workload:   wl,
		Runner:     workloads.NewBareRunner(stm.TL2{}, h, 2),
		MaxThreads: 2,
		Seed:       5,
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Error("double Start must fail")
	}
	x := d.MeasureThroughput(30 * time.Millisecond)
	if x <= 0 {
		t.Errorf("throughput = %f, want positive", x)
	}
	d.Stop()
	d.Stop() // idempotent
	if d.Ops() == 0 {
		t.Error("no operations recorded")
	}

	bad := &workloads.Driver{Workload: wl, Runner: d.Runner, MaxThreads: 0}
	if err := bad.Start(); err == nil {
		t.Error("MaxThreads=0 must fail")
	}
}

// TestKMeansAccumulatorConsistency: each cluster's per-dimension sums are
// committed atomically with the count, so sums must be consistent with the
// number of updates (every update adds < 1024 per dimension).
func TestKMeansAccumulatorConsistency(t *testing.T) {
	h := tm.NewHeap(1<<12, 4)
	km := &workloads.KMeans{Clusters: 4, Dims: 4}
	if err := km.Setup(h, workloads.NewRand(2)); err != nil {
		t.Fatal(err)
	}
	runner := workloads.NewBareRunner(stm.SwissTM{}, h, 4)
	d := &workloads.Driver{Workload: km, Runner: runner, MaxThreads: 4, Seed: 3}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for d.Ops() < 5000 {
	}
	d.Stop()
	sums, counts := workloads.KMeansAccumulators(km, h)
	for c := range counts {
		for dim, s := range sums[c] {
			if counts[c] == 0 {
				if s != 0 {
					t.Errorf("cluster %d has sum without updates", c)
				}
				continue
			}
			if s/counts[c] >= 1024 {
				t.Errorf("cluster %d dim %d mean %d out of range (torn update?)", c, dim, s/counts[c])
			}
		}
	}
}

// TestInterferenceStartStop exercises every antagonist kind.
func TestInterferenceStartStop(t *testing.T) {
	for _, k := range []workloads.InterferenceKind{workloads.StressCPU, workloads.StressMemory, workloads.StressAlloc} {
		inf := &workloads.Interference{Kind: k, Workers: 2}
		inf.Start()
		time.Sleep(10 * time.Millisecond)
		inf.Stop()
		if k.String() == "?" {
			t.Errorf("missing name for kind %d", k)
		}
	}
}

// TestSerialDriverDeterminism pins the serial driver's guarantee: same
// seed → identical operation streams, commit counts and heap contents.
func TestSerialDriverDeterminism(t *testing.T) {
	run := func(seed uint64) (uint64, uint64) {
		h := tm.NewHeap(1<<18, 4)
		wl := &workloads.RBTree{KeyRange: 256, UpdateRatio: 0.5}
		if err := wl.Setup(h, workloads.NewRand(seed)); err != nil {
			t.Fatal(err)
		}
		r := workloads.NewBareRunner(&stm.TL2{}, h, 4)
		d := workloads.NewSerialDriver(wl, r, 4, seed)
		d.SetSlots(2)
		d.Run(500)
		d.SetSlots(4) // mid-run reconfiguration keeps per-slot streams
		d.Run(500)
		if d.Ops() != 1000 {
			t.Fatalf("ops = %d", d.Ops())
		}
		return h.Digest(), d.Ops()
	}
	d1, _ := run(9)
	d2, _ := run(9)
	if d1 != d2 {
		t.Fatalf("same seed, different heap digests: %016x vs %016x", d1, d2)
	}
	d3, _ := run(10)
	if d1 == d3 {
		t.Fatalf("different seeds, same heap digest %016x", d1)
	}
}

// TestSerialDriverSlotClamping covers SetSlots bounds.
func TestSerialDriverSlotClamping(t *testing.T) {
	h := tm.NewHeap(1<<16, 2)
	wl := &workloads.RBTree{KeyRange: 64}
	if err := wl.Setup(h, workloads.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	d := workloads.NewSerialDriver(wl, workloads.NewBareRunner(&stm.GlobalLock{}, h, 2), 2, 1)
	d.SetSlots(0) // clamps to 1
	d.Step()
	d.SetSlots(99) // clamps to max slots
	d.Step()
	if d.Ops() != 2 {
		t.Fatalf("ops = %d", d.Ops())
	}
}
