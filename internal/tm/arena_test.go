//go:build unix && !aix

package tm_test

import (
	"runtime"
	"testing"

	"repro/internal/tm"
)

// TestHeapIsOutsideTheGoHeap: a heap's words and tables are mapped, not
// allocated, so the collector neither counts them nor paces on them. A
// 2^22-word heap with eight slots reserves about 60 MiB; the Go heap must
// grow by less than 1 MiB. Race builds allocate the heap with make, so that
// the race detector sees every heap word.
func TestHeapIsOutsideTheGoHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds keep the heap in Go memory")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := tm.NewHeap(1<<22, 8)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	if rise := int64(after.HeapAlloc) - int64(before.HeapAlloc); rise >= 1<<20 {
		t.Errorf("NewHeap(1<<22, 8) raised HeapAlloc by %.1f MiB, want < 1 MiB", float64(rise)/(1<<20))
	}
}
