package core

import (
	"sync"
	"time"
)

// Clock is the runtime's time source: it stamps the wall-clock window
// source's windows and the timeline. Under a VirtualClock the source's
// settle and sample waits advance the clock instead of blocking.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
}

// realClock is the wall clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// RealTime returns the wall clock (the default Clock).
func RealTime() Clock { return realClock{} }

// VirtualClock is a manually advanced clock: Now returns a logical time
// that moves only through Advance or Sleep. Concurrency-safe.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock starts a virtual clock at start (the zero time is fine:
// only durations between readings matter).
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the virtual time by d and returns immediately.
func (c *VirtualClock) Sleep(d time.Duration) { c.Advance(d) }

// Advance moves the virtual time forward by d (negative d is ignored).
func (c *VirtualClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}
