// Package flowctl is the unified adaptive flow-control surface shared by
// every reliability layer in the tree: the control-plane ARQ of
// internal/core, the QR snapshot fetch of internal/broker, and the broker's
// cyclic snapshot sessions.
//
// It packages two small, pure state machines:
//
//   - Estimator: an RFC 6298-style round-trip estimator (SRTT/RTTVAR with
//     RTO = SRTT + 4·RTTVAR, clamped to [MinRTO, MaxRTO]) that turns the
//     static retransmission constants of the legacy API into timers that
//     track the observed path.
//   - Window: an AIMD congestion window (additive increase per in-order
//     ack, multiplicative decrease on retry) bounded to
//     [MinWindow, MaxWindow], with receiver-advertised window accounting
//     so a slow receiver throttles the sender explicitly instead of via
//     drops.
//
// Both are deterministic by construction: neither ever reads a clock or a
// random source — time enters exclusively as caller-supplied samples and
// the package is covered by the clockfree analyzer. That is what lets the
// same code run under the discrete-event testbed (virtual time, bit-exact
// same-seed replays) and behind real TCP faces (wall time).
//
// Config is the single documented knob surface. The zero value is valid and
// selects the adaptive defaults; NewConfig applies functional options on
// top. Static() reproduces the legacy fixed-constant behavior exactly — the
// measurable baseline the chaos matrix compares against.
package flowctl

import "time"

// Adaptive defaults. Layers that historically used different constants
// (ARQ: 50ms/6 attempts, QR: 100ms/5 attempts) pass explicit options; the
// defaults here are the documented middle ground for new callers.
const (
	// DefaultInitialRTO seeds the retransmission timer before the first
	// RTT sample (and is the fixed RTO in Static mode).
	DefaultInitialRTO = 50 * time.Millisecond
	// DefaultMinRTO floors the computed RTO: testbed RTTs are microseconds
	// and an unfloored timer would retransmit faster than hosts tick.
	DefaultMinRTO = 5 * time.Millisecond
	// DefaultMaxRTO caps exponential backoff so a sender keeps probing a
	// partitioned path at a bounded cadence instead of backing off into
	// silence (the legacy unclamped `rto << attempts` schedule effectively
	// stopped trying long before a multi-second partition healed).
	DefaultMaxRTO = 2 * time.Second
	// DefaultMaxAttempts bounds retransmissions per packet. Adaptive
	// timers make attempts cheap — each costs RTT-scale time, clamped by
	// MaxRTO — so the adaptive default is deliberately higher than the
	// legacy fixed-schedule budget of 6: the cap is a loss-rate bound, not
	// a time bound.
	DefaultMaxAttempts = 12
	// DefaultMinWindow, DefaultInitialWindow and DefaultMaxWindow bound
	// the AIMD pipeline ("we let a player have a set of at most N queries
	// outstanding at any time" — N now floats between the bounds).
	DefaultMinWindow     = 1
	DefaultInitialWindow = 4
	DefaultMaxWindow     = 32
	// DefaultAdvertisedWindow is the credit a receiver advertises to
	// senders (wire.Packet.AdvWin) when the caller does not size it.
	DefaultAdvertisedWindow = 4
)

// Config is the unified reliability configuration: every window, timer and
// backoff parameter in core, broker and the cmds flows through it. The zero
// value is valid — norm() resolves zero fields to the adaptive defaults —
// so `flowctl.Config{}` means "adaptive, default tuning".
type Config struct {
	// InitialRTO is the retransmission timeout used before the estimator
	// has a sample. In Static mode it is the fixed base RTO.
	InitialRTO time.Duration
	// MinRTO and MaxRTO clamp the computed RTO and its backoff.
	MinRTO time.Duration
	MaxRTO time.Duration
	// MaxAttempts bounds retransmissions per packet; exhausting it
	// abandons the packet (ARQ) or fails the fetch (QR).
	MaxAttempts int

	// MinWindow ≤ InitialWindow ≤ MaxWindow bound the AIMD window.
	MinWindow     int
	InitialWindow int
	MaxWindow     int

	// AdvertisedWindow is what this endpoint advertises to its senders as
	// receive credit (carried in the AdvWin wire TLV). Zero means
	// "advertise nothing" — senders fall back to their own defaults.
	AdvertisedWindow int

	// Static disables adaptation: the RTO stays at InitialRTO (plus the
	// legacy unclamped exponential backoff) and the window stays pinned at
	// InitialWindow. It exists so the fixed-constant baseline remains
	// runnable for apples-to-apples chaos and benchmark comparisons.
	Static bool
}

// Option mutates a Config under construction.
type Option func(*Config)

// NewConfig builds a Config from the adaptive defaults plus options.
func NewConfig(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	return c.norm()
}

// WithInitialRTO sets the pre-sample (and Static-mode) retransmission
// timeout. Non-positive values keep the default.
func WithInitialRTO(d time.Duration) Option {
	return func(c *Config) {
		if d > 0 {
			c.InitialRTO = d
		}
	}
}

// WithRTOBounds clamps the computed RTO (and its backoff) to [min, max].
func WithRTOBounds(min, max time.Duration) Option {
	return func(c *Config) {
		if min > 0 {
			c.MinRTO = min
		}
		if max > 0 {
			c.MaxRTO = max
		}
	}
}

// WithMaxAttempts bounds retransmissions per packet.
func WithMaxAttempts(n int) Option {
	return func(c *Config) {
		if n > 0 {
			c.MaxAttempts = n
		}
	}
}

// WithWindow bounds the AIMD window to [min, max] starting at initial.
func WithWindow(min, initial, max int) Option {
	return func(c *Config) {
		if min > 0 {
			c.MinWindow = min
		}
		if initial > 0 {
			c.InitialWindow = initial
		}
		if max > 0 {
			c.MaxWindow = max
		}
	}
}

// WithAdvertisedWindow sets the receive credit this endpoint advertises.
func WithAdvertisedWindow(n int) Option {
	return func(c *Config) {
		if n > 0 {
			c.AdvertisedWindow = n
		}
	}
}

// Static pins the RTO to InitialRTO and the window to InitialWindow — the
// legacy open-loop behavior, kept as the measurable baseline.
func Static() Option {
	return func(c *Config) { c.Static = true }
}

// norm resolves zero fields to the defaults and repairs inconsistent
// bounds, so downstream state machines never see a degenerate Config.
func (c Config) norm() Config {
	if c.InitialRTO <= 0 {
		c.InitialRTO = DefaultInitialRTO
	}
	if c.MinRTO <= 0 {
		c.MinRTO = DefaultMinRTO
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = DefaultMaxRTO
	}
	if c.MaxRTO < c.MinRTO {
		c.MaxRTO = c.MinRTO
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.MinWindow <= 0 {
		c.MinWindow = DefaultMinWindow
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = DefaultMaxWindow
	}
	if c.MaxWindow < c.MinWindow {
		c.MaxWindow = c.MinWindow
	}
	if c.InitialWindow <= 0 {
		c.InitialWindow = DefaultInitialWindow
	}
	if c.InitialWindow < c.MinWindow {
		c.InitialWindow = c.MinWindow
	}
	if c.InitialWindow > c.MaxWindow {
		c.InitialWindow = c.MaxWindow
	}
	if c.AdvertisedWindow < 0 {
		c.AdvertisedWindow = 0
	}
	return c
}

// Norm returns the Config with zero fields resolved to defaults; exported
// so layers embedding a Config can normalize once at construction.
func (c Config) Norm() Config { return c.norm() }

// BackoffRTO returns the retransmission timeout after `attempts` prior
// sends of the same packet: base doubled per attempt, clamped to MaxRTO.
// In Static mode the legacy unclamped `base << attempts` schedule is
// preserved exactly (that open-loop blow-up is part of what the baseline
// measures). It allocates nothing (TestHotPathsZeroAlloc).
func (c *Config) BackoffRTO(base time.Duration, attempts int) time.Duration {
	if c.Static {
		if attempts > 32 {
			attempts = 32
		}
		return base << uint(attempts)
	}
	for i := 0; i < attempts; i++ {
		base *= 2
		if base >= c.MaxRTO {
			return c.MaxRTO
		}
	}
	if base < c.MinRTO {
		base = c.MinRTO
	}
	return base
}
