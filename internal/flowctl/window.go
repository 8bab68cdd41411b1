package flowctl

// Window is an AIMD congestion window with receiver-advertised credit:
// additive increase (+1 per acked in-order unit) up to MaxWindow,
// multiplicative decrease (halve) on a loss event down to MinWindow. The
// effective send budget is min(cwnd, advertised) minus what is already in
// flight, so a slow receiver throttles the sender explicitly via the
// AdvWin TLV rather than implicitly via drops.
//
// By construction MinWindow ≤ cwnd ≤ MaxWindow always holds — OnAck and
// OnLoss clamp at the bounds — which the property tests assert across
// arbitrary event interleavings. Its methods run per ack and per send and
// allocate nothing (TestHotPathsZeroAlloc).
//
// In Static mode the window is pinned at InitialWindow (the paper's fixed
// pipeline depth N) and OnAck/OnLoss only maintain the in-flight count.
//
// The zero value is unusable; construct with NewWindow. Not safe for
// concurrent use.
type Window struct {
	cfg      Config
	cwnd     int
	adv      int // receiver-advertised credit; 0 = none advertised
	inflight int
}

// NewWindow returns a window governed by cfg (normalized first), starting
// at InitialWindow with no receiver advertisement.
func NewWindow(cfg Config) *Window {
	cfg = cfg.norm()
	return &Window{cfg: cfg, cwnd: cfg.InitialWindow}
}

// Effective returns the current send limit: cwnd, further capped by the
// receiver-advertised credit when one has been advertised.
func (w *Window) Effective() int {
	if w.adv > 0 && w.adv < w.cwnd {
		return w.adv
	}
	return w.cwnd
}

// CanSend reports whether another unit may enter flight without
// overrunning the effective window.
func (w *Window) CanSend() bool { return w.inflight < w.Effective() }

// OnSend records one unit entering flight. Callers gate sends on CanSend;
// OnSend itself does not reject overruns (retransmissions of units already
// counted must not call it again).
func (w *Window) OnSend() { w.inflight++ }

// OnAck records one in-flight unit acknowledged and additively grows the
// window (+1, capped at MaxWindow) unless Static.
func (w *Window) OnAck() {
	if w.inflight > 0 {
		w.inflight--
	}
	if w.cfg.Static {
		return
	}
	if w.cwnd < w.cfg.MaxWindow {
		w.cwnd++
	}
}

// OnLoss records a loss event: multiplicative decrease (cwnd halves,
// floored at MinWindow) unless Static. It does NOT change the in-flight
// count — the lost unit is normally retransmitted and stays in flight;
// callers that abandon a unit instead call OnAbandon.
//
// Callers should coalesce simultaneous timeouts into one OnLoss per tick:
// a whole window expiring at once is one loss event, not cwnd of them.
func (w *Window) OnLoss() {
	if w.cfg.Static {
		return
	}
	w.cwnd /= 2
	if w.cwnd < w.cfg.MinWindow {
		w.cwnd = w.cfg.MinWindow
	}
}

// OnAbandon records an in-flight unit given up on (attempts exhausted)
// without window growth.
func (w *Window) OnAbandon() {
	if w.inflight > 0 {
		w.inflight--
	}
}

// Advertise records the receiver-advertised credit from the peer's latest
// AdvWin TLV. Zero clears the advertisement (no cap).
func (w *Window) Advertise(n int) {
	if n < 0 {
		n = 0
	}
	w.adv = n
}

// CWnd returns the current congestion window.
func (w *Window) CWnd() int { return w.cwnd }

// Advertised returns the last receiver-advertised credit (0 if none).
func (w *Window) Advertised() int { return w.adv }

// InFlight returns the number of units currently in flight.
func (w *Window) InFlight() int { return w.inflight }
