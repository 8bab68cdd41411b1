package flowctl

import "time"

// Estimator is an RFC 6298-style smoothed round-trip estimator. Callers
// feed it RTT samples (Observe) measured between their own send and ack
// timestamps — the estimator itself never reads a clock — and read back an
// adaptive retransmission timeout (RTO).
//
// Per RFC 6298 §2: on the first sample SRTT := R and RTTVAR := R/2; on
// subsequent samples
//
//	RTTVAR := (1-β)·RTTVAR + β·|SRTT-R|   (β = 1/4)
//	SRTT   := (1-α)·SRTT   + α·R          (α = 1/8)
//	RTO    := SRTT + 4·RTTVAR, clamped to [MinRTO, MaxRTO]
//
// Callers must apply Karn's algorithm themselves: never Observe a sample
// for a packet that was retransmitted, since the ack cannot be matched to
// a specific transmission.
//
// The zero value is unusable; construct with NewEstimator. Estimator is
// not safe for concurrent use — each is owned by a single router/fetch
// state machine like the rest of the per-node state. Observe, RTO and
// BackoffRTO run per ack and per retransmission and allocate nothing
// (TestHotPathsZeroAlloc).
type Estimator struct {
	cfg     Config
	srtt    time.Duration
	rttvar  time.Duration
	samples uint64
}

// NewEstimator returns an estimator governed by cfg (normalized first).
func NewEstimator(cfg Config) *Estimator {
	return &Estimator{cfg: cfg.norm()}
}

// Observe folds one RTT sample into SRTT/RTTVAR. Non-positive samples are
// clamped to 1ns so a same-tick ack (virtual-time RTT of zero) still
// counts as "this path is fast" rather than poisoning the estimator.
// In Static mode samples are counted but ignored.
func (e *Estimator) Observe(rtt time.Duration) {
	if rtt <= 0 {
		rtt = 1
	}
	e.samples++
	if e.cfg.Static {
		return
	}
	if e.samples == 1 {
		e.srtt = rtt
		e.rttvar = rtt / 2
		return
	}
	// RTTVAR uses the pre-update SRTT, per the RFC's evaluation order.
	dev := e.srtt - rtt
	if dev < 0 {
		dev = -dev
	}
	e.rttvar = e.rttvar - e.rttvar/4 + dev/4
	e.srtt = e.srtt - e.srtt/8 + rtt/8
}

// RTO returns the current retransmission timeout: InitialRTO before any
// sample (or always, in Static mode), otherwise SRTT + 4·RTTVAR clamped
// to [MinRTO, MaxRTO].
func (e *Estimator) RTO() time.Duration {
	if e.cfg.Static || e.samples == 0 {
		return e.cfg.InitialRTO
	}
	rto := e.srtt + 4*e.rttvar
	if rto < e.cfg.MinRTO {
		rto = e.cfg.MinRTO
	}
	if rto > e.cfg.MaxRTO {
		rto = e.cfg.MaxRTO
	}
	return rto
}

// BackoffRTO returns the timeout for a packet already sent `attempts`
// times: the current RTO doubled per attempt under the Config's clamp.
func (e *Estimator) BackoffRTO(attempts int) time.Duration {
	return e.cfg.BackoffRTO(e.RTO(), attempts)
}

// SRTT returns the smoothed RTT (zero before the first sample).
func (e *Estimator) SRTT() time.Duration { return e.srtt }

// RTTVar returns the smoothed RTT deviation (zero before the first sample).
func (e *Estimator) RTTVar() time.Duration { return e.rttvar }

// Samples returns how many RTT observations have been folded in.
func (e *Estimator) Samples() uint64 { return e.samples }
