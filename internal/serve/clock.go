package serve

import "time"

// clock is serve's one source of time: every read of the time and every
// wait in the package goes through its Server's clock (Server.clock), so a
// harness can drive a server on time of its own. The failure detector's and
// the maintenance loop's tickers stay on the wall clock: they only decide
// when detect and maintain run, and a harness calls those itself.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	After(d time.Duration) <-chan time.Time
}

// wallClock is the default clock, the process's wall clock.
type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
