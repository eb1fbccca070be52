package metrics

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// Handler serves registry snapshots over HTTP in the Prometheus text
// exposition format. One handler can expose several registries — the debug
// endpoint merges the process-wide registry with per-subsystem ones.
type Handler struct {
	regs []*Registry
}

// NewHandler returns a handler over the given registries.
func NewHandler(regs ...*Registry) *Handler {
	return &Handler{regs: regs}
}

// snapshot gathers all registries, sorted by name.
func (h *Handler) snapshot() []MetricSnapshot {
	var all []MetricSnapshot
	for _, r := range h.regs {
		all = append(all, r.Snapshot()...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(&buf, h.snapshot())
	if _, err := w.Write(buf.Bytes()); err != nil {
		// The scrape client went away mid-response; there is no one left to
		// tell, but the discard stays deliberate (and lint-visible).
		return
	}
}

// splitName separates a registered name into its Prometheus base name and
// label body: `a_total{type="DATA"}` becomes ("a_total", `type="DATA"`).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// WritePrometheus renders snapshots in the Prometheus text exposition
// format. Histogram buckets are cumulative with power-of-two upper bounds
// in the instrument's raw value units (for a duration histogram with a
// millisecond unit the bounds are nanoseconds-per-2^i-milliseconds).
func WritePrometheus(buf *bytes.Buffer, snap []MetricSnapshot) {
	seen := make(map[string]bool)
	for _, m := range snap {
		base, labels := splitName(m.Name)
		if !seen[base] {
			seen[base] = true
			if m.Help != "" {
				fmt.Fprintf(buf, "# HELP %s %s\n", base, strings.ReplaceAll(m.Help, "\n", " "))
			}
			fmt.Fprintf(buf, "# TYPE %s %s\n", base, m.Type)
		}
		if m.Histogram == nil {
			fmt.Fprintf(buf, "%s %d\n", m.Name, m.Value)
			continue
		}
		h := m.Histogram
		unit := h.Unit
		if unit <= 0 {
			unit = 1
		}
		var cum int64
		for i, n := range h.Buckets {
			cum += n
			le := "+Inf"
			if i < len(h.Buckets)-1 {
				le = fmt.Sprintf("%d", (int64(1)<<uint(i))*unit)
			}
			fmt.Fprintf(buf, "%s_bucket{%s} %d\n", base, joinLabels(labels, `le=`+quote(le)), cum)
		}
		fmt.Fprintf(buf, "%s_sum%s %d\n", base, labelBlock(labels), h.Sum)
		fmt.Fprintf(buf, "%s_count%s %d\n", base, labelBlock(labels), h.Count)
	}
}

func quote(s string) string { return `"` + s + `"` }

func joinLabels(existing, extra string) string {
	if existing == "" {
		return extra
	}
	return existing + "," + extra
}

func labelBlock(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// NewDebugMux builds the full debug surface: /metrics (Prometheus text) and
// /debug/pprof/* (the standard profiling endpoints), on a private mux so
// mounting never touches http.DefaultServeMux.
func NewDebugMux(regs ...*Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", NewHandler(regs...))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a live observability endpoint: the debug mux served on a
// TCP listener, plus a runtime sampler feeding the first registry. The
// three CLIs mount one behind their -debug-addr flag so a long census or
// load run can be inspected mid-flight.
type DebugServer struct {
	lis     net.Listener
	srv     *http.Server
	mux     *http.ServeMux
	sampler *Sampler
	done    chan struct{}
}

// StartDebug listens on addr (":0" picks a free port), serves the debug mux
// for regs, and starts a runtime sampler into the first registry (a fresh
// registry is created when none are given). Close shuts everything down.
func StartDebug(addr string, regs ...*Registry) (*DebugServer, error) {
	if len(regs) == 0 {
		regs = []*Registry{NewRegistry()}
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: debug listener on %q: %w", addr, err)
	}
	mux := NewDebugMux(regs...)
	ds := &DebugServer{
		lis:     lis,
		srv:     &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		mux:     mux,
		sampler: NewRuntimeSampler(regs[0], 0),
		done:    make(chan struct{}),
	}
	ds.sampler.Start()
	go func() {
		defer close(ds.done)
		_ = ds.srv.Serve(lis) // always returns http.ErrServerClosed on Close
	}()
	return ds, nil
}

// Addr returns the listener's concrete address (resolved port included).
func (ds *DebugServer) Addr() string { return ds.lis.Addr().String() }

// Handle mounts an extra handler on the debug mux (the census dashboard
// rides on the same -debug-addr listener this way). http.ServeMux.Handle is
// safe to call while the server is accepting, so callers may mount handlers
// after StartDebug returns.
func (ds *DebugServer) Handle(pattern string, h http.Handler) {
	ds.mux.Handle(pattern, h)
}

// Close stops the sampler and the HTTP server.
func (ds *DebugServer) Close() error {
	ds.sampler.Stop()
	err := ds.srv.Close()
	<-ds.done
	return err
}
