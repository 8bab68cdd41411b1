package flowctl

import (
	"math/rand"
	"testing"
	"time"
)

func TestConfigNormDefaults(t *testing.T) {
	c := Config{}.Norm()
	if c.InitialRTO != DefaultInitialRTO || c.MinRTO != DefaultMinRTO || c.MaxRTO != DefaultMaxRTO {
		t.Fatalf("RTO defaults not applied: %+v", c)
	}
	if c.MaxAttempts != DefaultMaxAttempts {
		t.Fatalf("MaxAttempts default not applied: %+v", c)
	}
	if c.MinWindow != DefaultMinWindow || c.InitialWindow != DefaultInitialWindow || c.MaxWindow != DefaultMaxWindow {
		t.Fatalf("window defaults not applied: %+v", c)
	}
}

func TestConfigNormRepairsBounds(t *testing.T) {
	c := NewConfig(WithWindow(8, 2, 4)) // initial below min, max below min
	if c.MinWindow != 8 || c.MaxWindow != 8 || c.InitialWindow != 8 {
		t.Fatalf("bounds not repaired: %+v", c)
	}
	c = NewConfig(WithRTOBounds(time.Second, time.Millisecond))
	if c.MaxRTO != time.Second {
		t.Fatalf("MaxRTO not raised to MinRTO: %+v", c)
	}
}

func TestNewConfigOptions(t *testing.T) {
	c := NewConfig(
		WithInitialRTO(20*time.Millisecond),
		WithRTOBounds(2*time.Millisecond, 500*time.Millisecond),
		WithMaxAttempts(7),
		WithWindow(2, 3, 9),
		WithAdvertisedWindow(6),
		Static(),
	)
	want := Config{
		InitialRTO: 20 * time.Millisecond, MinRTO: 2 * time.Millisecond,
		MaxRTO: 500 * time.Millisecond, MaxAttempts: 7,
		MinWindow: 2, InitialWindow: 3, MaxWindow: 9,
		AdvertisedWindow: 6, Static: true,
	}
	if c != want {
		t.Fatalf("NewConfig = %+v, want %+v", c, want)
	}
}

// The estimator must converge to the true RTT under seeded jitter: after
// enough samples around a stable mean, SRTT sits near the mean and the
// RTO brackets the observed range.
func TestEstimatorConvergesUnderJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEstimator(NewConfig())
	const mean = 40 * time.Millisecond
	for i := 0; i < 500; i++ {
		jitter := time.Duration(rng.Int63n(int64(10*time.Millisecond))) - 5*time.Millisecond
		e.Observe(mean + jitter)
	}
	if got := e.SRTT(); got < 35*time.Millisecond || got > 45*time.Millisecond {
		t.Fatalf("SRTT = %v, want near %v", got, mean)
	}
	// RTO must cover the worst observed sample but stay well under MaxRTO.
	if rto := e.RTO(); rto < 45*time.Millisecond || rto > 200*time.Millisecond {
		t.Fatalf("RTO = %v, want in [45ms, 200ms]", rto)
	}
}

func TestEstimatorFirstSample(t *testing.T) {
	e := NewEstimator(NewConfig())
	if e.RTO() != DefaultInitialRTO {
		t.Fatalf("pre-sample RTO = %v, want InitialRTO", e.RTO())
	}
	e.Observe(100 * time.Millisecond)
	if e.SRTT() != 100*time.Millisecond || e.RTTVar() != 50*time.Millisecond {
		t.Fatalf("first sample: srtt=%v rttvar=%v", e.SRTT(), e.RTTVar())
	}
	// RTO = SRTT + 4*RTTVAR = 300ms.
	if e.RTO() != 300*time.Millisecond {
		t.Fatalf("RTO after first sample = %v, want 300ms", e.RTO())
	}
}

func TestEstimatorRTOClamped(t *testing.T) {
	e := NewEstimator(NewConfig(WithRTOBounds(10*time.Millisecond, 100*time.Millisecond)))
	e.Observe(time.Microsecond)
	if e.RTO() != 10*time.Millisecond {
		t.Fatalf("tiny-sample RTO = %v, want MinRTO", e.RTO())
	}
	for i := 0; i < 50; i++ {
		e.Observe(10 * time.Second)
	}
	if e.RTO() != 100*time.Millisecond {
		t.Fatalf("huge-sample RTO = %v, want MaxRTO", e.RTO())
	}
}

func TestEstimatorStaticIgnoresSamples(t *testing.T) {
	e := NewEstimator(NewConfig(WithInitialRTO(70*time.Millisecond), Static()))
	for i := 0; i < 10; i++ {
		e.Observe(time.Second)
	}
	if e.RTO() != 70*time.Millisecond {
		t.Fatalf("static RTO = %v, want 70ms always", e.RTO())
	}
	if e.Samples() != 10 {
		t.Fatalf("samples = %d, want counted even in static mode", e.Samples())
	}
}

func TestBackoffRTOClampAndStatic(t *testing.T) {
	cfg := NewConfig(WithInitialRTO(50*time.Millisecond), WithRTOBounds(5*time.Millisecond, 2*time.Second))
	if got := cfg.BackoffRTO(50*time.Millisecond, 0); got != 50*time.Millisecond {
		t.Fatalf("attempt 0: %v", got)
	}
	if got := cfg.BackoffRTO(50*time.Millisecond, 3); got != 400*time.Millisecond {
		t.Fatalf("attempt 3: %v, want 400ms", got)
	}
	if got := cfg.BackoffRTO(50*time.Millisecond, 20); got != 2*time.Second {
		t.Fatalf("attempt 20: %v, want clamped to MaxRTO", got)
	}
	st := NewConfig(Static())
	// Legacy unclamped schedule: base << attempts.
	if got := st.BackoffRTO(50*time.Millisecond, 6); got != 50*time.Millisecond<<6 {
		t.Fatalf("static attempt 6: %v, want %v", got, 50*time.Millisecond<<6)
	}
}

// Property: min ≤ cwnd ≤ max at all times, across seeded random
// ack/loss/send/abandon interleavings, and in-flight never exceeds the
// effective window when sends are gated on CanSend.
func TestWindowInvariantsUnderRandomEvents(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := NewConfig(WithWindow(1+rng.Intn(3), 1+rng.Intn(8), 4+rng.Intn(28)))
		w := NewWindow(cfg)
		for step := 0; step < 2000; step++ {
			switch rng.Intn(5) {
			case 0, 1: // try to send
				if w.CanSend() {
					w.OnSend()
				}
			case 2:
				if w.InFlight() > 0 {
					w.OnAck()
				}
			case 3:
				w.OnLoss()
			case 4:
				if rng.Intn(4) == 0 {
					w.Advertise(rng.Intn(40))
				} else if w.InFlight() > 0 {
					w.OnAbandon()
				}
			}
			if w.CWnd() < cfg.MinWindow || w.CWnd() > cfg.MaxWindow {
				t.Fatalf("seed %d step %d: cwnd %d outside [%d,%d]", seed, step, w.CWnd(), cfg.MinWindow, cfg.MaxWindow)
			}
			if w.InFlight() < 0 {
				t.Fatalf("seed %d step %d: negative inflight", seed, step)
			}
		}
	}
}

func TestWindowMultiplicativeDecrease(t *testing.T) {
	w := NewWindow(NewConfig(WithWindow(1, 16, 32)))
	w.OnLoss()
	if w.CWnd() != 8 {
		t.Fatalf("cwnd after loss = %d, want 8", w.CWnd())
	}
	for i := 0; i < 10; i++ {
		w.OnLoss()
	}
	if w.CWnd() != 1 {
		t.Fatalf("cwnd floored at %d, want MinWindow 1", w.CWnd())
	}
}

func TestWindowAdditiveIncrease(t *testing.T) {
	w := NewWindow(NewConfig(WithWindow(1, 2, 5)))
	for i := 0; i < 10; i++ {
		w.OnSend()
		w.OnAck()
	}
	if w.CWnd() != 5 {
		t.Fatalf("cwnd = %d, want capped at MaxWindow 5", w.CWnd())
	}
}

// Property: the advertised window is never overrun — once the receiver
// advertises N, CanSend refuses to let in-flight exceed min(cwnd, N).
func TestWindowAdvertisedNeverOverrun(t *testing.T) {
	w := NewWindow(NewConfig(WithWindow(1, 4, 32)))
	w.Advertise(2)
	sent := 0
	for w.CanSend() {
		w.OnSend()
		sent++
	}
	if sent != 2 {
		t.Fatalf("sent %d with advertised window 2", sent)
	}
	// Growth past the advertisement must not unlock more sends.
	w.OnAck()
	w.OnSend()
	if w.CanSend() {
		t.Fatal("CanSend true at advertised limit")
	}
	// Clearing the advertisement restores cwnd as the limit.
	w.Advertise(0)
	if !w.CanSend() {
		t.Fatal("CanSend false after advertisement cleared, cwnd has room")
	}
}

func TestWindowStaticPinned(t *testing.T) {
	w := NewWindow(NewConfig(WithWindow(1, 3, 32), Static()))
	for i := 0; i < 10; i++ {
		w.OnSend()
		w.OnAck()
	}
	if w.CWnd() != 3 {
		t.Fatalf("static cwnd grew to %d", w.CWnd())
	}
	w.OnLoss()
	if w.CWnd() != 3 {
		t.Fatalf("static cwnd shrank to %d", w.CWnd())
	}
}

// TestHotPathsZeroAlloc pins the per-ack estimator update, the backoff
// schedule and the window arithmetic, all on the ARQ hot path, at zero
// allocations in both adaptive and Static mode.
func TestHotPathsZeroAlloc(t *testing.T) {
	for _, cfg := range []Config{NewConfig(), NewConfig(Static())} {
		hotPathsZeroAlloc(t, cfg)
	}
}

func hotPathsZeroAlloc(t *testing.T, cfg Config) {
	e := NewEstimator(cfg)
	w := NewWindow(cfg)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Observe(10 * time.Millisecond)
		_ = e.RTO()
		_ = e.BackoffRTO(2)
		_ = cfg.BackoffRTO(time.Millisecond, 3)
		_ = w.Effective()
		if w.CanSend() {
			w.OnSend()
		}
		w.OnAck()
		w.OnLoss()
		w.OnSend()
		w.OnAbandon()
	})
	if allocs != 0 {
		t.Fatalf("static=%v: hot path allocates %v/op, want 0", cfg.Static, allocs)
	}
}

// FuzzWindowEstimator drives both state machines through arbitrary
// ack/timeout/send/advertise interleavings and asserts the structural
// invariants hold for every prefix.
func FuzzWindowEstimator(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 0, 2, 3})
	f.Add([]byte{3, 3, 3, 3, 3, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, events []byte) {
		cfg := NewConfig()
		w := NewWindow(cfg)
		e := NewEstimator(cfg)
		for _, ev := range events {
			switch ev % 6 {
			case 0:
				if w.CanSend() {
					w.OnSend()
				}
			case 1:
				if w.InFlight() > 0 {
					w.OnAck()
				}
				e.Observe(time.Duration(ev) * time.Millisecond)
			case 2:
				w.OnLoss()
			case 3:
				if w.InFlight() > 0 {
					w.OnAbandon()
				}
			case 4:
				w.Advertise(int(ev))
			case 5:
				_ = e.BackoffRTO(int(ev % 16))
			}
			if w.CWnd() < cfg.MinWindow || w.CWnd() > cfg.MaxWindow {
				t.Fatalf("cwnd %d outside [%d,%d]", w.CWnd(), cfg.MinWindow, cfg.MaxWindow)
			}
			if w.InFlight() < 0 {
				t.Fatal("negative inflight")
			}
			if rto := e.RTO(); rto < cfg.MinRTO && e.Samples() > 0 && !cfg.Static {
				t.Fatalf("RTO %v below MinRTO %v", rto, cfg.MinRTO)
			}
			if rto := e.RTO(); rto > cfg.MaxRTO && e.Samples() > 0 {
				t.Fatalf("RTO %v above MaxRTO %v", rto, cfg.MaxRTO)
			}
		}
	})
}
