package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gofi/internal/campaign"
	"gofi/internal/experiments"
	"gofi/internal/obs"
	"gofi/internal/report"
)

// Config configures a campaign server.
type Config struct {
	// Dir is the durable state directory (checkpoints + record logs).
	// Required.
	Dir string
	// Slots bounds how many shard engine legs run concurrently across
	// all campaigns; 0 means GOMAXPROCS.
	Slots int
	// CheckpointEvery is the fold-frontier checkpoint cadence in trials;
	// 0 means 64, negative disables periodic checkpoints (terminal and
	// pause checkpoints are always written).
	CheckpointEvery int
	// Metrics, when non-nil, is the server-level registry; nil builds a
	// private one.
	Metrics *obs.Registry
}

// Server coordinates campaigns: accepts specs over HTTP, runs their
// shard legs under a global slot budget, owns their durable state, and
// serves status, streams and lifecycle transitions.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	slots chan struct{}

	mu        sync.Mutex
	seq       int
	campaigns map[string]*Campaign
	envs      map[string]*envEntry
	envCap    int    // maxEnvs; tests lower it
	envClock  uint64 // ticks once per envFor, orders envEntry.used

	baseCtx    context.Context
	cancelBase context.CancelFunc
}

// envEntry is one fixture-cache slot: the first campaign with a given
// fixture key trains it; others wait on the same entry.
type envEntry struct {
	once sync.Once
	env  *experiments.CampaignEnv
	err  error
	used uint64 // Server.envClock at the last envFor, under Server.mu
}

// maxEnvs caps the fixture cache. An entry pins a trained model, its
// dataset and the fixture's clean cache (a checkpoint store of up to
// campaign.StoreBudget bytes), so the cache must not grow with the number
// of distinct fixtures ever submitted; past the cap the least recently
// used entry is dropped. Campaigns hold their environment by pointer, so
// eviction only costs the next submission of that fixture a retrain.
const maxEnvs = 8

// New builds a server over the given state directory, loading any
// checkpointed campaigns found there (interrupted ones come back
// paused, resumable from exactly their checkpointed frontier).
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: state directory required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 64
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		slots:      make(chan struct{}, slots),
		campaigns:  make(map[string]*Campaign),
		envs:       make(map[string]*envEntry),
		envCap:     maxEnvs,
		baseCtx:    ctx,
		cancelBase: cancel,
	}
	paths, err := filepath.Glob(filepath.Join(cfg.Dir, "*.ckpt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		c, err := loadCheckpoint(s, p)
		if err != nil {
			return nil, fmt.Errorf("serve: loading %s: %w", p, err)
		}
		s.campaigns[c.ID] = c
		// Keep new IDs clear of restored ones (IDs are c<seq>).
		if n, ok := parseID(c.ID); ok && n > s.seq {
			s.seq = n
		}
	}
	return s, nil
}

func parseID(id string) (int, bool) {
	if !strings.HasPrefix(id, "c") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	return n, err == nil
}

// Metrics returns the server-level registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Submit validates a spec and starts its campaign.
func (s *Server) Submit(sp Spec) (*Campaign, error) {
	sp = sp.Canon()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("c%06d", s.seq)
	c := newCampaign(s, id, sp)
	s.campaigns[id] = c
	s.mu.Unlock()
	s.reg.Counter(MetricCampaignsSubmitted).Inc()
	c.start(s.baseCtx)
	return c, nil
}

// Get returns a campaign by ID.
func (s *Server) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// List returns all campaigns' statuses, ID-ordered.
func (s *Server) List() []Status {
	s.mu.Lock()
	ids := make([]string, 0, len(s.campaigns))
	for id := range s.campaigns {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if c, ok := s.Get(id); ok {
			out = append(out, c.Status())
		}
	}
	return out
}

// Close pauses every active campaign (each writes its checkpoint) and
// releases the server. Campaigns resume from their frontiers when a new
// server opens the same state directory.
func (s *Server) Close() {
	s.mu.Lock()
	cs := make([]*Campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	for _, c := range cs {
		c.Pause()
	}
	s.cancelBase()
}

// envFor resolves the campaign's prepared environment through the
// fixture cache: campaigns with the same fixture key (model, training
// and fault-model fields; not trial budget, sharding or stopping) share
// one trained fixture — and its clean cache — so submitting ten shardings
// of one experiment trains once and runs each sample's clean pass once.
// The cache holds at most maxEnvs fixtures, least recently used out.
func (s *Server) envFor(ctx context.Context, sp Spec) (*experiments.CampaignEnv, error) {
	key := sp.envKey()
	s.mu.Lock()
	e, ok := s.envs[key]
	if !ok {
		if len(s.envs) >= s.envCap {
			lru := ""
			for k, o := range s.envs {
				if lru == "" || o.used < s.envs[lru].used {
					lru = k
				}
			}
			delete(s.envs, lru)
		}
		e = &envEntry{}
		s.envs[key] = e
	}
	s.envClock++
	e.used = s.envClock
	s.mu.Unlock()
	if ok {
		s.reg.Counter(MetricEnvCacheHits).Inc()
	}
	e.once.Do(func() {
		cfg, err := sp.Config()
		if err != nil {
			e.err = err
			return
		}
		e.env, e.err = experiments.PrepareGenericCampaign(ctx, cfg)
	})
	if e.err != nil {
		// A cancelled training must not poison the cache for the next
		// submission.
		s.mu.Lock()
		if s.envs[key] == e {
			delete(s.envs, key)
		}
		s.mu.Unlock()
	}
	return e.env, e.err
}

// Handler returns the server's HTTP API:
//
//	POST /v1/campaigns              submit a Spec, returns Status (202)
//	GET  /v1/campaigns              list statuses
//	GET  /v1/campaigns/{id}         one status
//	GET  /v1/campaigns/{id}/stream  chunked JSONL event stream (?from=N)
//	GET  /v1/campaigns/{id}/metrics per-campaign engine metrics
//	POST /v1/campaigns/{id}/pause   checkpoint and halt
//	POST /v1/campaigns/{id}/resume  relaunch from the checkpoint
//	POST /v1/campaigns/{id}/cancel  terminally stop
//	GET  /v1/metrics                server metrics snapshot
//	GET  /healthz                   liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", s.withCampaign(func(c *Campaign, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Status())
	}))
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", s.withCampaign(s.handleStream))
	mux.HandleFunc("GET /v1/campaigns/{id}/metrics", s.withCampaign(func(c *Campaign, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		c.Metrics().WriteJSON(w)
	}))
	mux.HandleFunc("POST /v1/campaigns/{id}/pause", s.withCampaign(func(c *Campaign, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Pause())
	}))
	mux.HandleFunc("POST /v1/campaigns/{id}/resume", s.withCampaign(func(c *Campaign, w http.ResponseWriter, r *http.Request) {
		st, err := c.Resume(s.baseCtx)
		if err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}))
	mux.HandleFunc("POST /v1/campaigns/{id}/cancel", s.withCampaign(func(c *Campaign, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Cancel())
	}))
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.reg.WriteJSON(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return s.countRequests(mux)
}

func (s *Server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter(MetricHTTPRequests).Inc()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) withCampaign(fn func(*Campaign, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("serve: no campaign %q", r.PathValue("id")))
			return
		}
		fn(c, w, r)
	}
}

// maxSpecBytes caps a submission body: room for a scenario with a long
// fixed-site or rule list, far below what would let one request pin the
// server's memory.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var c *Campaign
	sp, err := DecodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err == nil {
		c, err = s.Submit(sp)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, c.Status())
}

// handleStream writes the campaign's chunked-JSONL event stream: a hello
// event, then every trial record from index `from` onward in strict
// global order (replayed from the durable log, then live as the fold
// advances), interleaved with live Wilson-interval aggregate events, and
// finally a done (or error) event once the campaign settles. The trial
// lines are part of the byte-identity contract: two runs of the same
// spec produce identical sequences regardless of sharding, pausing or
// crashes.
func (s *Server) handleStream(c *Campaign, w http.ResponseWriter, r *http.Request) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad from=%q", q))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	out := report.NewStreamJSONL(w, flusher)

	clients := s.reg.Gauge(MetricStreamClients)
	clients.Add(1)
	defer clients.Add(-1)

	st := c.Status()
	hello := Event{Type: "hello", Campaign: c.ID, State: st.State, Agg: &st.Agg}
	if out.Write(hello) != nil {
		return
	}

	// The handler folds its own aggregate over the records it streams, so
	// its agg events are consistent with its own cursor even when it
	// started mid-stream.
	const aggEvery = 64
	var agg campaign.Aggregate
	cursor := 0
	err := c.streamRecords(r.Context(), from, func(rec campaign.TrialRecord) error {
		agg.AddRecord(rec)
		cursor = rec.Trial + 1
		if err := out.Write(Event{Type: "trial", Trial: &rec}); err != nil {
			return err
		}
		if (rec.Trial+1-from)%aggEvery == 0 {
			v := viewOf(agg, cursor, -1)
			return out.Write(Event{Type: "agg", Agg: &v})
		}
		return nil
	})
	if err != nil {
		// A client that went away hears nothing more; anything else (the
		// log failed) ends the stream with the reason instead of silently.
		if r.Context().Err() == nil {
			out.Write(Event{Type: "error", State: c.Status().State, Err: err.Error()})
		}
		return
	}
	st = c.Status()
	if st.State == StateFailed {
		out.Write(Event{Type: "error", State: st.State, Err: st.Err})
		return
	}
	out.Write(Event{Type: "done", State: st.State, Agg: &st.Agg})
}

// streamRecords calls fn for every folded record with index >= from, in
// strict global index order, blocking for live progress until the
// campaign settles. Records are read back from the durable log — the
// same bytes the fold wrote — so a streamer is oblivious to whether it
// replays history or tails the live fold.
func (c *Campaign) streamRecords(ctx context.Context, from int, fn func(campaign.TrialRecord) error) error {
	tail := logTail{c: c}
	defer tail.close()
	next := from
	for {
		c.mu.Lock()
		for c.next <= next && !terminalState(c.state) && c.state != StatePaused && ctx.Err() == nil {
			// Wait for the fold to advance past our cursor. Wake on a
			// context cancel too: a cond has no channel, so poke it from a
			// watcher goroutine.
			waitDone := make(chan struct{})
			go func() {
				select {
				case <-ctx.Done():
					c.mu.Lock()
					c.cond.Broadcast()
					c.mu.Unlock()
				case <-waitDone:
				}
			}()
			c.cond.Wait()
			close(waitDone)
		}
		available := c.next
		settled := terminalState(c.state) || c.state == StatePaused
		c.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		if available > next {
			n, err := tail.read(next, available, fn)
			if err != nil {
				return err
			}
			next = n
			continue
		}
		if settled {
			return nil
		}
	}
}

// logTail is one streamer's cursor into its campaign's record log: the
// file stays open between wakes and the reader stays where the last wake
// left it, so following a live campaign reads every log byte once instead
// of rescanning from line 0 per wake.
type logTail struct {
	c    *Campaign
	f    *os.File
	r    *bufio.Reader
	next int // index of the log line the reader stands before
}

func (t *logTail) close() {
	if t.f != nil {
		t.f.Close()
	}
}

// read feeds the log records with indices [from, to) to fn and returns
// the next unread index; a streamer's from never moves backwards, so the
// reader only ever skips ahead to it. The fold flushes the log before it
// publishes a frontier, so every line below to is whole in the file; the
// reader never consumes past the last one it returns, and a file that
// ends short of to is reported rather than waited for.
func (t *logTail) read(from, to int, fn func(campaign.TrialRecord) error) (int, error) {
	if t.f == nil {
		f, err := os.Open(t.c.logPath())
		if err != nil {
			return from, err
		}
		t.f = f
		t.r = bufio.NewReaderSize(countingReader{f, t.c.srv.reg.Counter(MetricStreamLogBytes)}, 1<<16)
	}
	for t.next < to {
		line, err := t.r.ReadBytes('\n')
		if err == io.EOF {
			return t.next, fmt.Errorf("serve: campaign %s: record log ends at trial %d, the fold is at %d", t.c.ID, t.next, to)
		}
		if err != nil {
			return t.next, err
		}
		if t.next >= from {
			var rec campaign.TrialRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return t.next, fmt.Errorf("serve: campaign %s: log line %d: %v", t.c.ID, t.next, err)
			}
			if err := fn(rec); err != nil {
				return t.next, err
			}
		}
		t.next++
	}
	return t.next, nil
}

// countingReader adds every byte read through it to n.
type countingReader struct {
	r io.Reader
	n *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
