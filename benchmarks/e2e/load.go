package main

import (
	"sync"
	"time"
)

// ivStat is what one caller recorded during one interval.
type ivStat struct {
	ok, failed uint64
	busyNs     uint64 // time spent inside step, ok or not
	h          hist   // latency of the ok operations
}

// phase is one timed stretch of a run: n back-to-back intervals of length d.
// Every caller reads the clock around each operation anyway, so it files the
// operation under the interval its reply arrived in; no coordinator thread
// competes with the callers for the two cores.
type phase struct {
	start time.Time
	d     time.Duration
	n     int
}

// index is the interval t falls in, or -1 once the phase is over.
func (p phase) index(t time.Time) int {
	if i := int(t.Sub(p.start) / p.d); i < p.n {
		return i
	}
	return -1
}

// caller is one closed-loop client: step issues its next operation, waits for
// the reply, checks it, and reports whether it succeeded.
type caller interface {
	step(tb *spanBuf) bool
}

// drive runs every caller in its own goroutine for n intervals of length d and
// returns what each recorded, per interval. A non-nil tracer records one span
// per operation.
func drive(callers []caller, d time.Duration, n int, tr *tracer) [][]ivStat {
	recs := make([][]ivStat, len(callers))
	var wg sync.WaitGroup
	ph := phase{start: time.Now(), d: d, n: n}
	for i, c := range callers {
		recs[i] = make([]ivStat, n)
		wg.Add(1)
		go func(c caller, rec []ivStat) {
			defer wg.Done()
			tb := tr.buf()
			for {
				t0 := time.Now()
				ok := c.step(tb)
				t1 := time.Now()
				iv := ph.index(t1)
				if iv < 0 {
					return
				}
				rec[iv].busyNs += uint64(t1.Sub(t0))
				if ok {
					rec[iv].ok++
					rec[iv].h.add(t1.Sub(t0))
				} else {
					rec[iv].failed++
				}
			}
		}(c, recs[i])
	}
	wg.Wait()
	return recs
}

// loadResult summarises a measured phase: one value per interval.
type loadResult struct {
	opsPerS, p50Ms, p99Ms, p999Ms []float64
	genUs                         []float64 // wall time per op not spent inside step
	ok, failed                    uint64
}

func summarize(recs [][]ivStat, d time.Duration) loadResult {
	var r loadResult
	if len(recs) == 0 {
		return r
	}
	for iv := range recs[0] {
		var all hist
		var ok, ops, busyNs uint64
		for _, rec := range recs {
			all.merge(&rec[iv].h)
			ok += rec[iv].ok
			ops += rec[iv].ok + rec[iv].failed
			busyNs += rec[iv].busyNs
			r.failed += rec[iv].failed
		}
		r.ok += ok
		r.opsPerS = append(r.opsPerS, float64(ok)/d.Seconds())
		r.p50Ms = append(r.p50Ms, all.quantile(0.50)/1e6)
		r.p99Ms = append(r.p99Ms, all.quantile(0.99)/1e6)
		r.p999Ms = append(r.p999Ms, all.quantile(0.999)/1e6)
		if ops > 0 {
			idle := float64(len(recs))*float64(d.Nanoseconds()) - float64(busyNs)
			r.genUs = append(r.genUs, idle/float64(ops)/1e3)
		}
	}
	return r
}

// column keeps interval iv of every caller's record.
func column(recs [][]ivStat, iv int) [][]ivStat {
	out := make([][]ivStat, len(recs))
	for i, rec := range recs {
		out[i] = rec[iv : iv+1]
	}
	return out
}

// append joins the intervals of two phases.
func (a loadResult) append(b loadResult) loadResult {
	a.opsPerS = append(a.opsPerS, b.opsPerS...)
	a.p50Ms = append(a.p50Ms, b.p50Ms...)
	a.p99Ms = append(a.p99Ms, b.p99Ms...)
	a.p999Ms = append(a.p999Ms, b.p999Ms...)
	a.genUs = append(a.genUs, b.genUs...)
	a.ok, a.failed = a.ok+b.ok, a.failed+b.failed
	return a
}
