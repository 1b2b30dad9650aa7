package core

import (
	"time"

	"repro/internal/polytm"
	"repro/internal/tm"
)

// A Scorer turns one window's transaction counts and length into a KPI.
type Scorer func(win tm.Stats, elapsed time.Duration) float64

// CommitRate scores a window by committed transactions per second (the
// Throughput KPI).
func CommitRate(win tm.Stats, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(win.Commits) / elapsed.Seconds()
}

// NewWallClock returns the wall-clock window source over pool. A window
// after a reconfiguration (Explore, Install) waits half a period for the
// system to settle and starts afresh; a steady window runs on from the
// last one (from the source's creation, for the first). Each measures one
// period and is scored by score. Once stop is closed, the wait in
// progress ends and the source reports no window.
func NewWallClock(pool *polytm.Pool, period time.Duration, score Scorer, stop <-chan struct{}) WindowSource {
	return &wallClock{pool: pool, period: period, score: score, stop: stop,
		last: pool.SnapshotStats(), at: time.Now()}
}

type wallClock struct {
	pool   *polytm.Pool
	period time.Duration
	score  Scorer
	stop   <-chan struct{}

	last tm.Stats  // the pool's stats at the current window's start
	at   time.Time // the current window's start
}

func (w *wallClock) Measure(kind WindowKind, _ int) (float64, bool) {
	if kind != Steady {
		if !w.wait(w.period / 2) {
			return 0, false
		}
		w.last, w.at = w.pool.SnapshotStats(), time.Now()
	}
	if !w.wait(w.period) {
		return 0, false
	}
	cur, now := w.pool.SnapshotStats(), time.Now()
	win, elapsed := cur.Sub(w.last), now.Sub(w.at)
	w.last, w.at = cur, now
	return w.score(win, elapsed), true
}

func (*wallClock) Alarm() {}

// wait sleeps for d, or until stop is closed, and reports whether stop is
// still open. A nil stop never closes.
func (w *wallClock) wait(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-w.stop:
	}
	select {
	case <-w.stop:
		return false
	default:
		return true
	}
}
