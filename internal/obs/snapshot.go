package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Snapshot is a point-in-time copy of every metric in a Registry.
// encoding/json emits map keys sorted, so serialized snapshots are
// stable for fixed contents — the determinism tests compare them
// directly.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every registered metric. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramStat, len(hists))
		for k, v := range hists {
			s.Histograms[k] = v.Stat()
		}
	}
	return s
}

// WriteJSON writes the current snapshot to w as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ExpvarFunc adapts the registry to an expvar.Func so it can be
// published into the process-global expvar namespace:
//
//	expvar.Publish("gofi", reg.ExpvarFunc())
func (r *Registry) ExpvarFunc() expvar.Func {
	return func() any { return r.Snapshot() }
}

// Handler returns an http.Handler exposing the registry:
//
//	/metrics      the snapshot as JSON
//	/debug/vars   the process expvar page (includes the registry when
//	              published)
//	/debug/pprof  the standard pprof index and profiles
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ReadHeaderTimeout bounds how long a connection to one of the tool's
// HTTP servers (this one, gofi-serve) may take to send its request
// headers, so idle or trickling connections cannot pile up.
const ReadHeaderTimeout = 5 * time.Second

// Server is a running metrics HTTP endpoint.
type Server struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
}

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts an HTTP server for the registry's Handler on addr in a
// background goroutine and returns once the listener is bound.
func (r *Registry) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler(), ReadHeaderTimeout: ReadHeaderTimeout}
	go func() {
		// ErrServerClosed (and the listener-closed error from Close) are
		// the expected shutdown paths; the server owns no other state.
		_ = srv.Serve(ln)
	}()
	return &Server{Addr: ln.Addr().String(), srv: srv}, nil
}
