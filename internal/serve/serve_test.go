package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gofi/internal/campaign"
	"gofi/internal/experiments"
	"gofi/internal/serialize"
)

// skipIfShort gates the training-heavy end-to-end tests out of -short
// runs; the wire-format unit tests below them always run.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("training-heavy end-to-end test; skipped with -short")
	}
}

// baseSpec is the cheap shared fixture: the smallest trainable model the
// experiments suite itself uses (alexnet at 4 classes / 16 px).
func baseSpec() Spec {
	return Spec{
		V:          WireVersion,
		Model:      "alexnet",
		Classes:    4,
		Size:       16,
		Epochs:     6,
		Noise:      0.2,
		Seed:       42,
		Trials:     60,
		Error:      "bitflip",
		Scope:      "neuron",
		Workers:    2,
		SkipErrors: true,
	}
}

// stopSpec attaches the PR 7 sequential stopping rule to the shared
// fixture; the floor keeps the rule from firing before the kill/resume
// test has interrupted the campaign, and the ±10pp half-width makes it
// certain to fire well inside the 300-trial budget.
func stopSpec() Spec {
	sp := baseSpec()
	sp.Trials = 300
	sp.StopCI = 0.1
	sp.StopConf = 0.95
	sp.StopMin = 40
	return sp
}

// localRef lazily runs a spec through the local single-machine path
// (experiments.RunGenericCampaign — exactly what the CLI executes) and
// caches the index-ordered record stream plus the final result. Every
// serve test compares against this: the service's whole contract is
// byte-identity with the local run.
type localRef struct {
	once sync.Once
	recs []campaign.TrialRecord
	res  experiments.GenericCampaignResult
	err  error
}

var (
	refBase localRef
	refStop localRef
)

func (ref *localRef) run(t *testing.T, sp Spec) ([]campaign.TrialRecord, experiments.GenericCampaignResult) {
	t.Helper()
	ref.once.Do(func() {
		cfg, err := sp.Config()
		if err != nil {
			ref.err = err
			return
		}
		var mu sync.Mutex
		cfg.Sinks = []campaign.TrialSink{campaign.SinkFunc(func(rec campaign.TrialRecord) error {
			rec.Worker = 0 // attribution is timing-dependent
			mu.Lock()
			ref.recs = append(ref.recs, rec)
			mu.Unlock()
			return nil
		})}
		ref.res, ref.err = experiments.RunGenericCampaign(context.Background(), cfg)
		sort.Slice(ref.recs, func(i, j int) bool { return ref.recs[i].Trial < ref.recs[j].Trial })
	})
	if ref.err != nil {
		t.Fatalf("local reference run: %v", ref.err)
	}
	return ref.recs, ref.res
}

// collectStream drains a campaign's full event stream, returning the
// trial records in arrival order and the terminal done event.
func collectStream(t *testing.T, cl *Client, id string, from int) ([]campaign.TrialRecord, Event) {
	t.Helper()
	var recs []campaign.TrialRecord
	var done Event
	err := cl.Stream(context.Background(), id, from, func(ev Event) error {
		switch ev.Type {
		case "trial":
			recs = append(recs, *ev.Trial)
		case "done":
			done = ev
		case "error":
			return fmt.Errorf("stream error event: %s", ev.Err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream %s from %d: %v", id, from, err)
	}
	if done.Type != "done" {
		t.Fatalf("stream %s ended without a done event", id)
	}
	return recs, done
}

func sameRecords(t *testing.T, label string, got, want []campaign.TrialRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// TestServeShardedMatchesLocal is the service-layer byte-identity proof:
// a campaign submitted over HTTP and split across 3 shard legs must
// stream exactly the records — and settle on exactly the aggregate — of
// the single-machine CLI path. It also pins the stop-rule wiring: a
// sharded campaign with -stop-ci semantics halts on the same global
// trial index as the local engine run, via the coordinator's ordered
// frontier.
func TestServeShardedMatchesLocal(t *testing.T) {
	skipIfShort(t)
	srv, err := New(Config{Dir: t.TempDir(), CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := &Client{Base: hs.URL}
	ctx := context.Background()

	sp := baseSpec()
	sp.Shards = 3
	st, err := cl.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || terminalState(st.State) {
		t.Fatalf("submit returned %+v", st)
	}

	// Stream from trial 0 while the campaign runs: live tail and log
	// replay must be indistinguishable.
	got, done := collectStream(t, cl, st.ID, 0)
	wantRecs, wantRes := refBase.run(t, baseSpec())
	sameRecords(t, "sharded stream vs local run", got, wantRecs)
	if done.State != StateDone {
		t.Fatalf("done event state = %q, want %q", done.State, StateDone)
	}
	wantView := viewOf(wantRes.Aggregate, len(wantRecs), -1)
	if done.Agg == nil || *done.Agg != wantView {
		t.Fatalf("done aggregate drifted:\n got %+v\nwant %+v", done.Agg, wantView)
	}

	// Status agrees with the stream, and carries the fixture description.
	fin, err := cl.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Agg != wantView {
		t.Fatalf("final status drifted: %+v", fin)
	}
	if fin.CleanAcc != wantRes.CleanAcc || fin.Eligible != wantRes.EligibleCount {
		t.Fatalf("fixture description drifted: acc %v/%v eligible %v/%v",
			fin.CleanAcc, wantRes.CleanAcc, fin.Eligible, wantRes.EligibleCount)
	}

	// A late subscriber replaying from the middle gets exactly the suffix.
	mid := len(wantRecs) / 2
	suffix, _ := collectStream(t, cl, st.ID, mid)
	sameRecords(t, "mid-stream replay", suffix, wantRecs[mid:])

	// Second submission: same fixture key (only sharding and stopping
	// differ), so the trained environment is shared — and the sharded
	// stop index must pin to the local -stop-ci run's.
	hits := srv.Metrics().Counter(MetricEnvCacheHits).Value()
	sp2 := stopSpec()
	sp2.Shards = 2
	st2, err := cl.Submit(ctx, sp2)
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := cl.Wait(ctx, st2.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin2.State != StateDone {
		t.Fatalf("stop campaign settled %q (%s), want done", fin2.State, fin2.Err)
	}
	if got := srv.Metrics().Counter(MetricEnvCacheHits).Value(); got <= hits {
		t.Fatalf("second submission did not hit the fixture cache (hits %d -> %d)", hits, got)
	}
	stopRecs, stopRes := refStop.run(t, stopSpec())
	if stopRes.Stop == nil || stopRes.Stop.Trial < 0 {
		t.Fatalf("local stop rule did not fire: %+v", stopRes.Stop)
	}
	stopAt := stopRes.Stop.Trial
	if fin2.Agg.StopTrial != stopAt {
		t.Fatalf("sharded stop index %d, local -stop-ci run stopped at %d", fin2.Agg.StopTrial, stopAt)
	}
	if fin2.Agg.NextTrial != stopAt+1 {
		t.Fatalf("fold frontier %d, want %d (stop index + 1)", fin2.Agg.NextTrial, stopAt+1)
	}
	if want := viewOf(stopRes.Aggregate, stopAt+1, stopAt); fin2.Agg != want {
		t.Fatalf("stopped aggregate drifted:\n got %+v\nwant %+v", fin2.Agg, want)
	}
	gotStop, _ := collectStream(t, cl, st2.ID, 0)
	sameRecords(t, "stopped stream vs local run", gotStop, stopRecs)

	// The campaign list includes both, ID-ordered.
	sts, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 || sts[0].ID >= sts[1].ID {
		t.Fatalf("list = %+v", sts)
	}
}

// TestServeKillResumeDeterminism is the durability proof: a campaign
// paused mid-run, its server discarded, its record log dirtied the way a
// crash would (records past the checkpointed frontier), then resumed by
// a brand-new server over the same state directory must finish with the
// identical aggregate, stop index, record stream and durable log bytes
// as the uninterrupted local run.
func TestServeKillResumeDeterminism(t *testing.T) {
	skipIfShort(t)
	dir := t.TempDir()
	srvA, err := New(Config{Dir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := stopSpec()
	sp.Shards = 2
	c, err := srvA.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}

	// Wait on the coordinator's own condvar until the fold frontier has
	// advanced, then pause immediately. The stop rule's 40-trial floor
	// keeps the campaign mid-flight (trials are fast; an HTTP pause's
	// round trip would already lose the race, so this one is in-process).
	c.mu.Lock()
	for c.next < 2 && !terminalState(c.state) {
		c.cond.Wait()
	}
	c.mu.Unlock()
	st := c.Pause()
	if st.State != StatePaused {
		t.Fatalf("campaign settled %q before the pause landed", st.State)
	}
	pausedAt := st.Agg.NextTrial
	if pausedAt < 2 {
		t.Fatalf("paused at frontier %d, want >= 2", pausedAt)
	}
	srvA.Close()

	// Crash simulation: the log is written ahead of the checkpoint, so a
	// killed node can leave records past the checkpointed frontier.
	// Append a stale extra line; recovery must truncate it and recompute.
	logPath := filepath.Join(dir, c.ID+".log.jsonl")
	buf, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(buf, []byte("\n")), []byte("\n"))
	stale := append(append([]byte{}, buf...), lines[len(lines)-1]...)
	stale = append(stale, '\n')
	if err := os.WriteFile(logPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	// Upgrade simulation: rewrite the checkpoint's spec the way the
	// previous wire revision stored it, execution settings included.
	// Checkpoints restore leniently, so the campaign must still resume —
	// to the same bytes, since those settings never changed a result.
	ckPath := filepath.Join(dir, c.ID+".ckpt")
	ck, err := serialize.LoadCampaignCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	ck.Spec = json.RawMessage(parentCommitSpec(string(ck.Spec)))
	if err := serialize.SaveCampaignCheckpoint(ckPath, ck); err != nil {
		t.Fatal(err)
	}

	// A fresh server over the same directory restores the campaign
	// paused at exactly the checkpointed frontier.
	srvB, err := New(Config{Dir: dir, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	hs := httptest.NewServer(srvB.Handler())
	defer hs.Close()
	cl := &Client{Base: hs.URL}
	ctx := context.Background()

	sts, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 || sts[0].ID != c.ID || sts[0].State != StatePaused {
		t.Fatalf("restored list = %+v", sts)
	}
	if sts[0].Agg.NextTrial != pausedAt {
		t.Fatalf("restored frontier %d, want %d", sts[0].Agg.NextTrial, pausedAt)
	}

	if _, err := cl.Resume(ctx, c.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, c.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("resumed campaign settled %q (%s), want done", fin.State, fin.Err)
	}

	wantRecs, wantRes := refStop.run(t, stopSpec())
	stopAt := wantRes.Stop.Trial
	if fin.Agg.StopTrial != stopAt {
		t.Fatalf("resumed stop index %d, uninterrupted run stopped at %d", fin.Agg.StopTrial, stopAt)
	}
	if want := viewOf(wantRes.Aggregate, stopAt+1, stopAt); fin.Agg != want {
		t.Fatalf("resumed aggregate drifted:\n got %+v\nwant %+v", fin.Agg, want)
	}

	// The stream replays the whole campaign — across the pause boundary —
	// identically to the uninterrupted run.
	got, done := collectStream(t, cl, c.ID, 0)
	sameRecords(t, "resumed stream vs uninterrupted run", got, wantRecs)
	if done.State != StateDone {
		t.Fatalf("done event state = %q", done.State)
	}

	// The durable log holds exactly the reference encoding: the stale
	// crash residue is gone and the recomputed lines are bit-identical.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, rec := range wantRecs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	gotLog, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLog, want.Bytes()) {
		t.Fatalf("durable log diverged from reference encoding (%d vs %d bytes)", len(gotLog), want.Len())
	}

	// Resuming a done campaign is a conflict, not a rerun.
	if _, err := cl.Resume(ctx, c.ID); err == nil {
		t.Fatal("resume of a done campaign succeeded")
	}
}

// TestServeLegsMatchUncapped pins the leg cap: with maxLegTrials lowered
// so every shard range runs as several engine legs, a campaign streams
// exactly the uncapped local run's records and settles on its aggregate,
// and a stop-rule campaign paused mid-run, its server discarded and
// resumed by a fresh one stops on the uncapped run's trial with its
// records and aggregate.
func TestServeLegsMatchUncapped(t *testing.T) {
	skipIfShort(t)
	defer func(prev int) { maxLegTrials = prev }(maxLegTrials)
	maxLegTrials = 7
	dir := t.TempDir()
	srvA, err := New(Config{Dir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	hsA := httptest.NewServer(srvA.Handler())
	clA := &Client{Base: hsA.URL}
	ctx := context.Background()

	base, err := srvA.Submit(baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, done := collectStream(t, clA, base.ID, 0)
	wantRecs, wantRes := refBase.run(t, baseSpec())
	sameRecords(t, "capped legs vs uncapped local run", got, wantRecs)
	if want := viewOf(wantRes.Aggregate, len(wantRecs), -1); done.State != StateDone || *done.Agg != want {
		t.Fatalf("capped campaign settled %q on %+v, want done on %+v", done.State, done.Agg, want)
	}
	// Every leg plans its lanes once: 60 trials in legs of 7 are 9 legs.
	if legs := base.Metrics().Histogram(campaign.MetricBatchPackTime).Count(); legs != 9 {
		t.Fatalf("%d engine legs planned, want 9", legs)
	}

	c, err := srvA.Submit(stopSpec())
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	for c.next < 2 && !terminalState(c.state) {
		c.cond.Wait()
	}
	c.mu.Unlock()
	if st := c.Pause(); st.State != StatePaused {
		t.Fatalf("campaign settled %q before the pause landed", st.State)
	}
	hsA.Close()
	srvA.Close()

	srvB, err := New(Config{Dir: dir, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	clB := &Client{Base: hsB.URL}
	if _, err := clB.Resume(ctx, c.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := clB.Wait(ctx, c.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	stopRecs, stopRes := refStop.run(t, stopSpec())
	stopAt := stopRes.Stop.Trial
	if want := viewOf(stopRes.Aggregate, stopAt+1, stopAt); fin.State != StateDone || fin.Agg != want {
		t.Fatalf("resumed capped campaign settled %q on %+v, want done on %+v", fin.State, fin.Agg, want)
	}
	gotStop, _ := collectStream(t, clB, c.ID, 0)
	sameRecords(t, "resumed capped stream vs uncapped run", gotStop, stopRecs)
}

// TestServeHTTPSurface covers the cheap API paths that need no trained
// fixture: health, metrics, validation failures, 404s and the
// cancel-while-training transition.
func TestServeHTTPSurface(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := &Client{Base: hs.URL}
	ctx := context.Background()

	for _, path := range []string{"/healthz", "/v1/metrics", "/v1/campaigns"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}

	// Invalid specs are rejected with the wrapped reason before any
	// training starts.
	bad := []string{
		`{`,                         // syntax
		`{"v":99}`,                  // version
		`{"v":1,"error":"martian"}`, // unknown error model
		`{"v":1,"typo_field":3}`,    // unknown field
		`{"v":1,"stop_ci":0.7}`,     // out-of-range rule
		// One request may not pin the server's memory: a body past the cap
		// is cut off and refused like any other malformed spec.
		`{"v":1,"model":"` + strings.Repeat("x", maxSpecBytes) + `"}`,
	}
	for _, body := range bad {
		resp, err := http.Post(hs.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil ||
			!strings.Contains(e.Error, ErrSpec.Error()) && !strings.Contains(e.Error, ErrWireVersion.Error()) {
			t.Fatalf("POST %s = %d (%q)", truncate(body, 40), resp.StatusCode, e.Error)
		}
	}
	if _, err := cl.Submit(ctx, Spec{V: 99}); err == nil {
		t.Fatal("client accepted a bad wire version")
	}

	// Unknown campaign IDs 404 on every campaign-scoped route.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/campaigns/c999999"},
		{http.MethodGet, "/v1/campaigns/c999999/stream"},
		{http.MethodGet, "/v1/campaigns/c999999/metrics"},
		{http.MethodPost, "/v1/campaigns/c999999/pause"},
		{http.MethodPost, "/v1/campaigns/c999999/resume"},
		{http.MethodPost, "/v1/campaigns/c999999/cancel"},
	} {
		req, _ := http.NewRequest(probe.method, hs.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}

	// Submit a real spec and cancel it immediately: training is
	// interrupted and the campaign settles cancelled — terminally.
	st, err := cl.Submit(ctx, baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	cst, err := cl.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cst.State != StateCancelled {
		t.Fatalf("cancelled campaign is %q", cst.State)
	}
	if _, err := cl.Resume(ctx, st.ID); err == nil {
		t.Fatal("resume of a cancelled campaign succeeded")
	}
	// Pausing a settled campaign is a no-op, not an error.
	if pst, err := cl.Pause(ctx, st.ID); err != nil || pst.State != StateCancelled {
		t.Fatalf("pause of cancelled campaign: %+v, %v", pst, err)
	}
	// The stream of a cancelled campaign settles with a done event
	// carrying the terminal state.
	_, done := collectStream(t, cl, st.ID, 0)
	if done.State != StateCancelled {
		t.Fatalf("stream done state = %q, want cancelled", done.State)
	}

	// Malformed ?from= is a 400.
	resp, err := http.Get(hs.URL + "/v1/campaigns/" + st.ID + "/stream?from=minus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from = %d, want 400", resp.StatusCode)
	}

	// Per-campaign metrics endpoint serves the private registry.
	resp, err = http.Get(hs.URL + "/v1/campaigns/" + st.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign metrics = %d", resp.StatusCode)
	}

	// A server refusing to start without a state directory.
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty state directory")
	}

	// A spec naming a model the registry cannot build settles failed —
	// with the reason on the status and an error event on the stream —
	// and does not poison the fixture cache for the next submission.
	badSp := baseSpec()
	badSp.Model = "no-such-model"
	stBad, err := cl.Submit(ctx, badSp)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, stBad.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || fin.Err == "" {
		t.Fatalf("bad model settled %+v", fin)
	}
	sawError := false
	err = cl.Stream(ctx, stBad.ID, 0, func(ev Event) error {
		if ev.Type == "error" && ev.Err != "" {
			sawError = true
		}
		return nil
	})
	if err != nil || !sawError {
		t.Fatalf("failed campaign stream: err=%v sawError=%v", err, sawError)
	}
	stBad2, err := cl.Submit(ctx, badSp)
	if err != nil {
		t.Fatal(err)
	}
	if fin2, err := cl.Wait(ctx, stBad2.ID, 0); err != nil || fin2.State != StateFailed {
		t.Fatalf("resubmitted bad model: %+v, %v", fin2, err)
	}
}

// TestServeLiveStream tails a campaign from before its first trial while
// its record log outgrows the log writer's 4 KiB buffer several times
// over, with no periodic checkpoint flushing the log on the side: the
// stream must deliver every trial exactly once, in order, and end with a
// done event — the fold may not publish a frontier whose lines are still
// in the buffer. Following it costs O(log): the streamer keeps one reader
// open across wakes, so the bytes it reads stay within twice the log's
// size however many wakes 5000 trials take (rescanning from line 0 per
// wake, as the handler once did, reads hundreds of times that). A stream
// that cannot be served (here: the log is gone) ends with an error event
// rather than silently.
func TestServeLiveStream(t *testing.T) {
	skipIfShort(t)
	dir := t.TempDir()
	srv, err := New(Config{Dir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := &Client{Base: hs.URL}

	sp := baseSpec()
	sp.Trials = 5000
	st, err := cl.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	recs, done := collectStream(t, cl, st.ID, 0)
	if done.State != StateDone || len(recs) != sp.Trials {
		t.Fatalf("live stream ended %q after %d of %d trials", done.State, len(recs), sp.Trials)
	}
	for i, rec := range recs {
		if rec.Trial != i {
			t.Fatalf("stream position %d carries trial %d", i, rec.Trial)
		}
	}
	info, err := os.Stat(filepath.Join(dir, st.ID+".log.jsonl"))
	if err != nil || info.Size() <= 3*4096 {
		t.Fatalf("record log (%v, err %v) does not outgrow the writer's buffer; raise Trials", info, err)
	}
	if read := srv.Metrics().Snapshot().Counters[MetricStreamLogBytes]; read < info.Size() || read > 2*info.Size() {
		t.Fatalf("the live stream read %d bytes of a %d-byte log, want between one and two times its size", read, info.Size())
	}

	if err := os.Remove(filepath.Join(dir, st.ID+".log.jsonl")); err != nil {
		t.Fatal(err)
	}
	var last Event
	if err := cl.Stream(context.Background(), st.ID, 0, func(ev Event) error { last = ev; return nil }); err != nil {
		t.Fatal(err)
	}
	if last.Type != "error" || last.Err == "" {
		t.Fatalf("stream over a missing log ended with %+v, want an error event", last)
	}
}

// TestServeEnvCacheBounded: the fixture cache holds at most its cap, least
// recently used out, and eviction is only the map letting go — a campaign
// running on the evicted environment keeps it by pointer and finishes
// with the records of a local run.
func TestServeEnvCacheBounded(t *testing.T) {
	skipIfShort(t)
	srv, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.envCap = 2
	cached := func(sp Spec) bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		_, ok := srv.envs[sp.envKey()]
		return ok
	}
	submit := func(sp Spec) *Campaign {
		t.Helper()
		c, err := srv.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// until polls cond, failing once c settles: every condition below must
	// come true while the long campaign is still running.
	until := func(c *Campaign, what string, cond func() bool) {
		t.Helper()
		for !cond() {
			if st := c.Status(); terminalState(st.State) {
				t.Fatalf("campaign %s was %s before %s; raise its Trials", c.ID, st.State, what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	long := baseSpec()
	long.Trials = 4000
	small := func(seed int64) Spec {
		sp := baseSpec()
		sp.Seed, sp.Epochs, sp.Trials = seed, 1, 4
		return sp
	}
	a := submit(long)
	until(a, "its first record", func() bool { return a.Status().Agg.NextTrial > 0 })

	// Two more fixtures fill the cap and push the long campaign's out; a
	// touch in between decides which of the first two goes.
	b := submit(small(7))
	until(a, "the second fixture was cached", func() bool { return cached(small(7)) })
	if !cached(long) {
		t.Fatal("the cache dropped an entry below its cap")
	}
	submit(small(7)) // makes the long campaign's entry the least recently used
	until(a, "the touch", func() bool {
		return srv.Metrics().Counter(MetricEnvCacheHits).Value() > 0
	})
	submit(small(8))
	until(a, "the third fixture was cached", func() bool { return cached(small(8)) })
	if cached(long) || !cached(small(7)) {
		t.Fatalf("entry cap+1 did not evict the least recently used: long cached %v, touched cached %v", cached(long), cached(small(7)))
	}
	if st := a.Status(); st.State != StateRunning {
		t.Fatalf("campaign %s is %s at eviction, want it still running; raise its Trials", a.ID, st.State)
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := &Client{Base: hs.URL}
	got, done := collectStream(t, cl, a.ID, 0)
	if done.State != StateDone {
		t.Fatalf("campaign on the evicted fixture ended %s", done.State)
	}
	var ref localRef
	want, _ := ref.run(t, long)
	sameRecords(t, "campaign on an evicted fixture vs local", got, want)
	if _, err := cl.Wait(context.Background(), b.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestServeRecoveryRejectsCorruptState pins the crash-recovery guard
// rails: a state directory whose artifacts cannot reproduce the
// checkpointed frontier must refuse to load rather than resume into a
// diverging campaign.
func TestServeRecoveryRejectsCorruptState(t *testing.T) {
	writeCkpt := func(t *testing.T, dir string, ck serialize.CampaignCheckpoint) {
		t.Helper()
		if err := serialize.SaveCampaignCheckpoint(filepath.Join(dir, ck.ID+".ckpt"), ck); err != nil {
			t.Fatal(err)
		}
	}

	// Checkpoint claims folded trials but the record log is missing.
	dir := t.TempDir()
	writeCkpt(t, dir, serialize.CampaignCheckpoint{
		ID: "c000005", State: StateRunning, Spec: json.RawMessage(`{"v":1}`),
		NextTrial: 10, StopTrial: -1,
	})
	if _, err := New(Config{Dir: dir}); err == nil {
		t.Fatal("loaded a checkpoint with no record log")
	}
	// ... or the log is shorter than the checkpointed frontier.
	if err := os.WriteFile(filepath.Join(dir, "c000005.log.jsonl"), []byte("{}\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir}); err == nil {
		t.Fatal("loaded a checkpoint whose log is shorter than its frontier")
	}

	// A checkpoint carrying an unrunnable spec refuses to load.
	dir2 := t.TempDir()
	writeCkpt(t, dir2, serialize.CampaignCheckpoint{
		ID: "c000001", State: StateDone, Spec: json.RawMessage(`{"v":9}`),
		NextTrial: 0, StopTrial: -1,
	})
	if _, err := New(Config{Dir: dir2}); err == nil {
		t.Fatal("loaded a checkpoint with an unsupported spec version")
	}

	// Garbage checkpoint bytes refuse to load.
	dir3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir3, "x.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir3}); err == nil {
		t.Fatal("loaded garbage checkpoint bytes")
	}

	// A healthy terminal checkpoint with a non-sequential ID restores
	// fine, and fresh IDs never collide with it.
	dir4 := t.TempDir()
	writeCkpt(t, dir4, serialize.CampaignCheckpoint{
		ID: "adhoc", State: StateDone, Spec: json.RawMessage(`{"v":1}`),
		NextTrial: 0, StopTrial: -1,
	})
	srv, err := New(Config{Dir: dir4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, ok := srv.Get("adhoc"); !ok {
		t.Fatal("restored campaign not listed")
	}
	cheap := baseSpec().Canon()
	cheap.Model = "no-such-model" // fails fast; this only probes ID allocation
	if got, err := srv.Submit(cheap); err != nil || got.ID != "c000001" {
		t.Fatalf("fresh ID = %+v (err %v), want c000001", got, err)
	}
}
