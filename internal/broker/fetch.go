package broker

import (
	"sort"
	"strings"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// Legacy QR-fetch retry parameters, preserved as the flowctl Static-mode
// baseline tuning.
const (
	// DefaultQRRTO is the initial per-Interest retry timeout (the fixed
	// base in Static mode, the pre-sample seed otherwise).
	DefaultQRRTO = 100 * time.Millisecond
	// DefaultQRMaxAttempts is the legacy budget of sends per Interest
	// (first send included); adaptive configs default to
	// flowctl.DefaultMaxAttempts instead.
	DefaultQRMaxAttempts = 5
)

// qrDefaults normalizes a fetch flow config: QR fetches keep their
// historical 100ms initial timeout, and Static mode keeps the legacy
// 5-attempt budget.
func qrDefaults(cfg flowctl.Config) flowctl.Config {
	if cfg.InitialRTO <= 0 {
		cfg.InitialRTO = DefaultQRRTO
	}
	if cfg.MaxAttempts <= 0 && cfg.Static {
		cfg.MaxAttempts = DefaultQRMaxAttempts
	}
	return cfg.Norm()
}

// qrInFlight is the retry state of one unanswered Interest.
type qrInFlight struct {
	attempts int
	nextAt   time.Time
	// sentAt is the original transmission time; retransmitted marks
	// Interests whose Data must not be RTT-sampled (Karn's algorithm).
	sentAt        time.Time
	retransmitted bool
}

// QRFetch drives the query-response snapshot download of one leaf: first
// the manifest, then the changed objects through an AIMD pipelining window
// (the paper's "set of at most N queries outstanding at any time", with N
// floating between the flowctl bounds: +1 per answered Interest, halved on
// a retry round). Retry timers are adaptive — Data round trips feed an RFC
// 6298 estimator, so the retry RTO tracks the broker path.
//
// It is a pure state machine: feed it the Data packets addressed to it with
// the caller's clock and emit what it returns; it never reads time itself.
// A fetch always terminates — Done on success, Failed once any Interest
// exhausts its attempt budget.
type QRFetch struct {
	leaf cd.CD
	flow flowctl.Config
	win  *flowctl.Window
	est  *flowctl.Estimator

	manifest  string // the manifest's Interest name
	prefix    string // object Interest names are prefix + id
	wanted    []string
	nextToAsk int
	inflight  map[string]qrInFlight // Interest name → retry state
	received  map[string]int        // object id → version
	done      bool
	failed    bool
	retrans   uint64

	// Telemetry, bound by Instrument; nil (the default) disables it.
	cwndHist *obs.Histogram
	srttHist *obs.Histogram
}

// NewFetch prepares a download of leaf's snapshot, configured through the
// unified flowctl surface: flowctl.WithWindow bounds the AIMD pipeline,
// flowctl.WithInitialRTO / WithRTOBounds / WithMaxAttempts tune the retry
// timers. With no options the fetch is adaptive with the legacy 100ms
// initial timeout; flowctl.Static() pins the window at InitialWindow and
// the RTO at InitialRTO (the paper's fixed-window behavior — pass
// flowctl.WithWindow(n, n, n) with Static for the exact legacy shape).
func NewFetch(leaf cd.CD, opts ...flowctl.Option) *QRFetch {
	var c flowctl.Config
	for _, o := range opts {
		o(&c)
	}
	cfg := qrDefaults(c)
	return &QRFetch{
		leaf:     leaf,
		flow:     cfg,
		win:      flowctl.NewWindow(cfg),
		est:      flowctl.NewEstimator(cfg),
		manifest: ManifestName(leaf),
		prefix:   ObjectName(leaf, ""),
		inflight: make(map[string]qrInFlight),
		received: make(map[string]int),
	}
}

// Instrument binds the fetch's flow-control telemetry to reg: the window
// trajectory (observed once per answered Interest) and the smoothed RTT.
func (f *QRFetch) Instrument(reg *obs.Registry) {
	f.cwndHist = reg.Histogram("qr_cwnd", []float64{1, 2, 4, 8, 16, 32, 64})
	f.srttHist = reg.Histogram("qr_srtt_ms", obs.LatencyBucketsMs())
}

// StartAt returns the manifest Interest and arms its retry timer. The
// manifest rides outside the object window: there is nothing to pipeline
// until it arrives.
func (f *QRFetch) StartAt(now time.Time) []*wire.Packet {
	f.inflight[f.manifest] = qrInFlight{attempts: 1, nextAt: now.Add(f.est.RTO()), sentAt: now}
	return []*wire.Packet{{Type: wire.TypeInterest, Name: f.manifest}}
}

// HandleDataAt consumes a Data packet; it returns follow-up Interests and
// whether the download completed. Only Data answering an Interest this fetch
// currently has in flight is accepted: duplicates and unrequested packets
// are ignored without touching the pipeline accounting, so a hostile or
// lossy network can delay the download but never wedge or corrupt it.
func (f *QRFetch) HandleDataAt(now time.Time, pkt *wire.Packet) ([]*wire.Packet, bool) {
	if f.done || f.failed || pkt.Type != wire.TypeData {
		return nil, f.done
	}
	s, asked := f.inflight[pkt.Name]
	if !asked {
		return nil, false // duplicate or unrequested: idempotent no-op
	}
	if pkt.Name == f.manifest {
		f.observeRTT(now, s)
		delete(f.inflight, pkt.Name)
		for id := range ParseManifest(pkt.Payload) {
			f.wanted = append(f.wanted, id)
		}
		sort.Strings(f.wanted) // map order is random; fetch order must not be
		if len(f.wanted) == 0 {
			f.done = true
			return nil, true
		}
		return f.fill(now), false
	}
	// The id is taken from the name; the payload must carry the same one.
	id, named := strings.CutPrefix(pkt.Name, f.prefix)
	idb, version, _, ok := parseObject(pkt.Payload)
	if !ok || id == "" || !named || string(idb) != id {
		return nil, false // malformed, or named like our Interest but lying
	}
	f.observeRTT(now, s)
	delete(f.inflight, pkt.Name)
	f.received[id] = version
	f.win.OnAck() // additive increase: the pipeline may deepen
	if f.cwndHist != nil {
		f.cwndHist.Observe(float64(f.win.CWnd()))
	}
	out := f.fill(now)
	if len(f.received) == len(f.wanted) {
		f.done = true
		return out, true
	}
	return out, false
}

// observeRTT feeds one answered Interest's round trip into the estimator,
// unless the Interest was retransmitted (Karn: the sample is ambiguous).
func (f *QRFetch) observeRTT(now time.Time, s qrInFlight) {
	if s.retransmitted {
		return
	}
	f.est.Observe(now.Sub(s.sentAt))
	if f.srttHist != nil {
		f.srttHist.Observe(float64(f.est.SRTT()) / float64(time.Millisecond))
	}
}

// Tick retries every in-flight Interest whose adaptive timeout expired,
// with doubled (MaxRTO-clamped) backoff. A retry round is one loss event:
// the window halves once per Tick that retries anything, no matter how many
// Interests expired together. An Interest that exhausts the flowctl
// MaxAttempts budget fails the whole fetch (returned Interests: none;
// Failed() turns true) — the caller can restart from scratch if it wants
// another go. Iteration is sorted by name so equal clocks produce equal
// retry orders.
func (f *QRFetch) Tick(now time.Time) []*wire.Packet {
	if f.done || f.failed || len(f.inflight) == 0 {
		return nil
	}
	names := make([]string, 0, len(f.inflight))
	for name := range f.inflight {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*wire.Packet
	lost := false
	for _, name := range names {
		s := f.inflight[name]
		if s.nextAt.After(now) {
			continue
		}
		if s.attempts >= f.flow.MaxAttempts {
			f.failed = true
			return nil
		}
		s.attempts++
		s.retransmitted = true
		s.nextAt = now.Add(f.est.BackoffRTO(s.attempts))
		f.inflight[name] = s
		f.retrans++
		lost = true
		out = append(out, &wire.Packet{Type: wire.TypeInterest, Name: name})
	}
	if lost {
		f.win.OnLoss() // multiplicative decrease, once per retry round
		if f.cwndHist != nil {
			f.cwndHist.Observe(float64(f.win.CWnd()))
		}
	}
	return out
}

// fill tops the pipeline back up to the AIMD window. Object Interests in
// flight are what the window counts; the manifest never is.
func (f *QRFetch) fill(now time.Time) []*wire.Packet {
	var out []*wire.Packet
	for len(f.inflight) < f.win.Effective() && f.nextToAsk < len(f.wanted) {
		id := f.wanted[f.nextToAsk]
		f.nextToAsk++
		name := ObjectName(f.leaf, id)
		f.inflight[name] = qrInFlight{attempts: 1, nextAt: now.Add(f.est.RTO()), sentAt: now}
		out = append(out, &wire.Packet{Type: wire.TypeInterest, Name: name})
	}
	return out
}

// Done reports successful completion.
func (f *QRFetch) Done() bool { return f.done }

// Failed reports that some Interest exhausted its retry budget.
func (f *QRFetch) Failed() bool { return f.failed }

// Retransmissions returns how many Interest retries Tick has issued.
func (f *QRFetch) Retransmissions() uint64 { return f.retrans }

// Received returns how many objects arrived.
func (f *QRFetch) Received() int { return len(f.received) }

// CWnd returns the current AIMD pipeline window, for tests and exposition.
func (f *QRFetch) CWnd() int { return f.win.CWnd() }

// SRTT returns the smoothed Interest/Data round-trip estimate (zero before
// the first sample).
func (f *QRFetch) SRTT() time.Duration { return f.est.SRTT() }

// CyclicFetch drives the cyclic-multicast snapshot download of one leaf:
// subscribe to the data channel, signal the broker, collect one full
// rotation, then leave. Its flowctl AdvertisedWindow rides the
// session-start control multicast (the AdvWin wire TLV), telling the broker
// how many objects per rotation tick this mover can absorb; the broker caps
// the session at the smallest advertisement among its subscribers.
type CyclicFetch struct {
	leaf     cd.CD
	origin   string
	advWin   int
	expected int // from the manifest; -1 until known
	received map[string]int
	done     bool
}

// NewCyclicFetch prepares a cyclic download of leaf's snapshot. origin
// identifies the mover in control messages. flowctl.WithAdvertisedWindow
// sets the receive credit advertised to the broker; by default
// flowctl.DefaultAdvertisedWindow objects per delivery tick.
func NewCyclicFetch(leaf cd.CD, origin string, opts ...flowctl.Option) *CyclicFetch {
	cfg := flowctl.NewConfig(opts...)
	adv := cfg.AdvertisedWindow
	if adv == 0 {
		adv = flowctl.DefaultAdvertisedWindow
	}
	return &CyclicFetch{leaf: leaf, origin: origin, advWin: adv, expected: -1, received: make(map[string]int)}
}

// Start returns the subscription to the data channel plus the session-start
// control publication carrying this mover's advertised window.
func (f *CyclicFetch) Start() []*wire.Packet {
	return []*wire.Packet{
		{Type: wire.TypeSubscribe, CDs: []cd.CD{DataCD(f.leaf)}},
		{Type: wire.TypeMulticast, CDs: []cd.CD{CtlCD(f.leaf)}, Origin: f.origin,
			Payload: []byte("start"), AdvWin: uint32(f.advWin)},
	}
}

// HandleMulticast consumes a data-channel packet; on completion it returns
// the unsubscribe and session-stop packets.
func (f *CyclicFetch) HandleMulticast(pkt *wire.Packet) ([]*wire.Packet, bool) {
	if f.done || pkt.Type != wire.TypeMulticast {
		return nil, f.done
	}
	c, err := pkt.CD()
	if err != nil {
		return nil, false
	}
	if leaf, ok := LeafOfDataCD(c); !ok || leaf != f.leaf {
		return nil, false
	}
	id, version, manifest, ok := ParseObject(pkt.Payload)
	if !ok {
		return nil, false
	}
	if manifest >= 0 {
		f.expected = manifest
	} else {
		f.received[id] = version
	}
	if f.expected >= 0 && len(f.received) >= f.expected {
		f.done = true
		return []*wire.Packet{
			{Type: wire.TypeUnsubscribe, CDs: []cd.CD{DataCD(f.leaf)}},
			{Type: wire.TypeMulticast, CDs: []cd.CD{CtlCD(f.leaf)}, Origin: f.origin, Payload: []byte("stop")},
		}, true
	}
	return nil, false
}

// Done reports completion.
func (f *CyclicFetch) Done() bool { return f.done }

// Received returns how many distinct objects arrived.
func (f *CyclicFetch) Received() int { return len(f.received) }
