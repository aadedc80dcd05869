package fault

import (
	"time"

	"ewmac/internal/sim"
)

// DriftClock is a disciplined imperfect oscillator implementing
// mac.Clock. The raw hardware behaviour is a phase offset plus a
// frequency skew, raw(t) = offset + t·(1 + skew); on top of it the
// node applies a correction learned at each synchronization epoch.
// Immediately after a Sync the corrected local reading equals true
// time; between syncs the residual skew re-accumulates error, and
// during a sync-loss episode (Desync) the error grows unbounded until
// discipline returns.
type DriftClock struct {
	// offset is the initial phase error; skewPPM the frequency error in
	// parts per million (a cheap crystal is ±20–100 ppm).
	offset  time.Duration
	skewPPM float64
	// corr is subtracted from the raw reading; Sync sets it so the
	// corrected reading matches true time at the sync instant.
	corr time.Duration
	// lost marks an ongoing sync-loss episode: Sync calls are ignored.
	lost bool
}

// NewDriftClock builds a clock with the given initial phase offset and
// frequency skew (parts per million), not yet disciplined.
func NewDriftClock(offset time.Duration, skewPPM float64) *DriftClock {
	return &DriftClock{offset: offset, skewPPM: skewPPM}
}

// raw is the undisciplined hardware reading at true instant t.
func (c *DriftClock) raw(t sim.Time) time.Duration {
	g := t.Duration()
	return c.offset + g + time.Duration(float64(g)*c.skewPPM/1e6)
}

// Local implements mac.Clock.
func (c *DriftClock) Local(t sim.Time) time.Duration {
	return c.raw(t) - c.corr
}

// TrueTime implements mac.Clock: it inverts Local, returning the true
// instant at which the corrected local clock reads local.
func (c *DriftClock) TrueTime(local time.Duration) sim.Time {
	// local = offset + g·(1+s/1e6) - corr  ⇒  g = (local + corr - offset)/(1+s/1e6).
	g := float64(local+c.corr-c.offset) / (1 + c.skewPPM/1e6)
	return sim.At(time.Duration(g))
}

// Err reports the current clock error: corrected local reading minus
// true time at instant t.
func (c *DriftClock) Err(t sim.Time) time.Duration {
	return c.Local(t) - t.Duration()
}

// Sync disciplines the clock so its corrected reading equals true time
// at now. A clock inside a sync-loss episode ignores the call.
func (c *DriftClock) Sync(now sim.Time) {
	if c.lost {
		return
	}
	c.corr = c.raw(now) - now.Duration()
}

// Desync starts or ends a sync-loss episode.
func (c *DriftClock) Desync(lost bool) { c.lost = lost }

// Lost reports whether a sync-loss episode is in progress.
func (c *DriftClock) Lost() bool { return c.lost }
