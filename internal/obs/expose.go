package obs

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"
)

// WriteText renders every registered metric in the Prometheus text
// exposition format (text/plain; version=0.0.4): counters and gauges as
// single samples, histograms as cumulative _bucket/_sum/_count series.
// Metrics are emitted in name order so scrapes diff cleanly.
//
// GaugeFunc callbacks run inside WriteText; hosts whose callbacks read
// non-atomic state must serialize the call (the daemon routes it through
// its event loop).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.kinds))
	for name := range r.kinds {
		names = append(names, name)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		switch r.kinds[name] {
		case kindCounter:
			writeHeader(bw, name, "counter")
			writeSample(bw, name, formatUint(r.counters[name].Value()))
		case kindGauge:
			writeHeader(bw, name, "gauge")
			writeSample(bw, name, formatInt(r.gauges[name].Value()))
		case kindGaugeFunc:
			writeHeader(bw, name, "gauge")
			writeSample(bw, name, formatFloat(r.gaugeFuncs[name]()))
		case kindHistogram:
			h := r.histograms[name]
			writeHeader(bw, name, "histogram")
			counts := h.Snapshot()
			var cum uint64
			for i, bound := range h.bounds {
				cum += counts[i]
				bw.WriteString(name)               //nolint:errcheck // flushed below
				bw.WriteString(`_bucket{le="`)     //nolint:errcheck
				bw.WriteString(formatFloat(bound)) //nolint:errcheck
				bw.WriteString(`"} `)              //nolint:errcheck
				bw.WriteString(formatUint(cum))    //nolint:errcheck
				bw.WriteByte('\n')                 //nolint:errcheck
			}
			cum += counts[len(counts)-1]
			bw.WriteString(name)                  //nolint:errcheck
			bw.WriteString(`_bucket{le="+Inf"} `) //nolint:errcheck
			bw.WriteString(formatUint(cum))       //nolint:errcheck
			bw.WriteByte('\n')                    //nolint:errcheck
			writeSample(bw, name+"_sum", formatFloat(h.Sum()))
			writeSample(bw, name+"_count", formatUint(h.Count()))
		}
	}
	r.mu.RUnlock()
	return bw.Flush()
}

func writeHeader(bw *bufio.Writer, name, typ string) {
	bw.WriteString("# TYPE ") //nolint:errcheck // flushed by WriteText
	bw.WriteString(name)      //nolint:errcheck
	bw.WriteByte(' ')         //nolint:errcheck
	bw.WriteString(typ)       //nolint:errcheck
	bw.WriteByte('\n')        //nolint:errcheck
}

func writeSample(bw *bufio.Writer, name, value string) {
	bw.WriteString(name)  //nolint:errcheck // flushed by WriteText
	bw.WriteByte(' ')     //nolint:errcheck
	bw.WriteString(value) //nolint:errcheck
	bw.WriteByte('\n')    //nolint:errcheck
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }
func formatInt(v int64) string   { return strconv.FormatInt(v, 10) }
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// NewDebugMux builds the runtime debug endpoint shared by the daemons:
//
//	GET /metrics        Prometheus-style text exposition (via metrics)
//	GET /flight?n=64    last n packet-path records (via flight; all if n
//	                    is absent); 404 when flight is nil
//	GET /debug/trace    Chrome trace-event JSON of the causal packet trace
//	                    (via trace; open in Perfetto); 404 when trace is nil
//	GET /debug/pprof/*  the standard runtime profiles
//
// The callbacks let each host serialize access its own way: the TCP daemon
// routes both through its event loop, the broker writes its (atomic-only)
// registry directly.
func NewDebugMux(metrics func(io.Writer), flight func(io.Writer, int), trace func(io.Writer)) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics(w)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, req *http.Request) {
		if flight == nil {
			http.NotFound(w, req)
			return
		}
		n := 0
		if s := req.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad n parameter", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		flight(w, n)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		if trace == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="gcopss-trace.json"`)
		trace(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug serves handler over HTTP on addr until ctx is cancelled and
// returns the bound address (addr may use port 0). Serve errors go to logf.
func ServeDebug(ctx context.Context, addr string, handler http.Handler, logf func(string, ...interface{})) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listen: %w", err)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	context.AfterFunc(ctx, func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(shutCtx) //nolint:errcheck // best-effort shutdown
	})
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logf("debug server %s: %v", ln.Addr(), err)
		}
	}()
	return ln.Addr(), nil
}
