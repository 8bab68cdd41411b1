package transport

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/obs/trace"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// startDebugDaemon runs a silent daemon with router options on a loopback
// listener and binds its debug endpoint.
func startDebugDaemon(t *testing.T, ctx context.Context, name string, opts ...core.Option) (d *Daemon, addr, debugURL string) {
	t.Helper()
	d = NewDaemon(name, opts...)
	d.SetLogger(func(string, ...interface{}) {})
	a, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Run(ctx) //nolint:errcheck // cancelled at test end
	da, err := d.ServeDebug(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return d, a.String(), "http://" + da.String()
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close() //nolint:errcheck // test shim
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts the value of an unlabeled sample from a Prometheus
// text exposition, or -1 when absent.
func metricValue(body, name string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// TestDebugEndpointAfterPublicationExchange is the telemetry acceptance
// test: after a two-router publication exchange the debug endpoints must
// expose nonzero multicast_in / rp_deliveries counters and a populated
// delivery-latency histogram, and each daemon's own /flight ring must hold
// its part of the packet path in order — encapsulation at the edge,
// decapsulation and subscription-tree fan-out at the RP. With sampling off,
// as gcopssd runs by default, /debug/trace still serves a valid document,
// but one without packet spans.
func TestDebugEndpointAfterPublicationExchange(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Each daemon records into its own ring with sampling off, so the ring
	// keeps every step. R1 hosts the RP; R2 is the edge router with both the
	// subscriber and the publisher attached.
	d1, addr1, debug1 := startDebugDaemon(t, ctx, "R1", core.WithTracer(trace.NewTracer(0, 0, 256)))
	d2, addr2, debug2 := startDebugDaemon(t, ctx, "R2", core.WithTracer(trace.NewTracer(0, 0, 256)))
	if err := d2.ConnectRouter(addr1); err != nil {
		t.Fatal(err)
	}
	linkUp(t, d1, d2)

	if err := d1.BecomeRP(copss.RPInfo{
		Name:     "/rp1",
		Prefixes: []cd.CD{cd.MustNew("1"), cd.MustNew("2")},
		Seq:      1,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "announcement flood", func() bool { return knowsRP(d2, "/rp1") })

	sub, err := NewClient("soldier", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close() //nolint:errcheck // test shutdown
	if err := sub.Subscribe(cd.MustParse("/1/2")); err != nil {
		t.Fatal(err)
	}
	pub, err := NewClient("plane", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close() //nolint:errcheck // test shutdown
	waitFor(t, "subscription propagation", func() bool { return stLen(d2) == 1 && stLen(d1) == 1 })

	if err := pub.Publish(cd.MustParse("/1/2"), 1, []byte("flyover")); err != nil {
		t.Fatal(err)
	}
	rxc := make(chan *wire.Packet, 1)
	go func() {
		if p, err := sub.Receive(); err == nil {
			rxc <- p
		}
	}()
	select {
	case p := <-rxc:
		if string(p.Payload) != "flyover" {
			t.Fatalf("received %q", p.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("publication never delivered")
	}

	// R2 (the edge) saw the raw client Multicast and delivered to a client
	// face, so it owns multicast_in and the latency histogram; R1 (the RP)
	// owns rp_deliveries.
	code, body2 := httpGet(t, debug2+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics on R2: status %d", code)
	}
	if v := metricValue(body2, "multicast_in"); v < 1 {
		t.Errorf("R2 multicast_in = %v, want >= 1", v)
	}
	if v := metricValue(body2, "delivery_latency_ms_count"); v < 1 {
		t.Errorf("R2 delivery_latency_ms_count = %v, want >= 1", v)
	}
	if !strings.Contains(body2, `delivery_latency_ms_bucket{le="+Inf"}`) {
		t.Error("R2 exposition lacks the latency histogram buckets")
	}
	code, body1 := httpGet(t, debug1+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics on R1: status %d", code)
	}
	if v := metricValue(body1, "rp_deliveries"); v < 1 {
		t.Errorf("R1 rp_deliveries = %v, want >= 1", v)
	}
	if v := metricValue(body1, "rp_table_entries"); v < 1 {
		t.Errorf("R1 rp_table_entries = %v, want >= 1", v)
	}

	// Each /flight dump holds that daemon's own steps in order: the edge
	// encapsulates the publication and later fans the returning multicast
	// out to the subscriber; the RP decapsulates it, then fans it out.
	for _, tc := range []struct {
		router, url, first, then string
	}{
		{"R2 (edge)", debug2, " encapsulate face", " fan-out face"},
		{"R1 (RP)", debug1, " rp-deliver face", " fan-out face"},
	} {
		code, dump := httpGet(t, tc.url+"/flight")
		if code != http.StatusOK {
			t.Fatalf("%s /flight: status %d", tc.router, code)
		}
		i, j := strings.Index(dump, tc.first), strings.LastIndex(dump, tc.then)
		if i < 0 || j < i {
			t.Errorf("%s /flight lacks%s before%s:\n%s", tc.router, tc.first, tc.then, dump)
		}
		if !strings.Contains(dump, "origin=plane") {
			t.Errorf("%s /flight lost the publication origin:\n%s", tc.router, dump)
		}
	}

	// pprof rides along on the same mux.
	if code, _ := httpGet(t, debug1+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", code)
	}

	// Sampling off: the ring's records carry no trace ID, so the export is a
	// valid document with router tracks but no packet span.
	code, doc := httpGet(t, debug2+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", code)
	}
	if err := trace.ValidateChromeTrace([]byte(doc)); err != nil {
		t.Fatalf("/debug/trace returned invalid document: %v\n%s", err, doc)
	}
	if strings.Contains(doc, `"ph":"X"`) || strings.Contains(doc, `"ph":"i"`) {
		t.Errorf("/debug/trace with sampling off holds packet records:\n%s", doc)
	}
}

// TestDebugTraceEndpoint drives a traced publication through a live daemon
// and pulls the Chrome trace from /debug/trace: the document must validate
// and contain the publication's hop records.
func TestDebugTraceEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	tr := trace.NewTracer(1, 7, 256) // sample everything
	d, addr, debugURL := startDebugDaemon(t, ctx, "R1", core.WithTracer(tr))
	if err := d.BecomeRP(copss.RPInfo{
		Name:     "/rp1",
		Prefixes: []cd.CD{cd.MustNew("1")},
		Seq:      1,
	}); err != nil {
		t.Fatal(err)
	}

	sub, err := NewClient("soldier", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close() //nolint:errcheck // test shutdown
	if err := sub.Subscribe(cd.MustParse("/1/2")); err != nil {
		t.Fatal(err)
	}
	pub, err := NewClient("plane", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close() //nolint:errcheck // test shutdown
	waitFor(t, "subscription", func() bool { return stLen(d) == 1 })

	if err := pub.Publish(cd.MustParse("/1/2"), 1, []byte("flyover")); err != nil {
		t.Fatal(err)
	}
	rxc := make(chan *wire.Packet, 1)
	go func() {
		if p, err := sub.Receive(); err == nil {
			rxc <- p
		}
	}()
	select {
	case p := <-rxc:
		if p.TraceID == 0 {
			t.Error("delivered publication lost its trace ID")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("publication never delivered")
	}

	code, body := httpGet(t, debugURL+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", code)
	}
	if err := trace.ValidateChromeTrace([]byte(body)); err != nil {
		t.Fatalf("/debug/trace returned invalid document: %v\n%s", err, body)
	}
	if !strings.Contains(body, "rp-deliver") || !strings.Contains(body, "fan-out") {
		t.Errorf("/debug/trace misses hop events:\n%s", body)
	}
}
