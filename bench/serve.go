package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"gofi/internal/campaign"
	"gofi/internal/experiments"
	"gofi/internal/serve"
)

// serveSizes shape the service workload: many small campaigns, so that
// what a campaign costs besides its forwards is a large share of it.
type serveSizes struct {
	model string
	size  int
	// A campaign has minTrials + [0, spanTrials) trials, drawn from
	// -seed: the fixture is fixed (see fixtureSeed) and the wire format
	// ties a campaign's trial streams to it, so the sizes are what the
	// seed varies. The span stays inside one checkpoint period.
	minTrials, spanTrials int
	clients               int
	liveTrials            int // the live-stream and pause/resume probes' campaign
	// replayShare of the measured seconds goes to the replay phase.
	replayShare float64
	minPerLoop  int // campaigns per client, at least
}

func serveSizesFor(toy bool) serveSizes {
	if toy {
		return serveSizes{model: "alexnet", size: 16, minTrials: 40, spanTrials: 16, clients: min(2, runtime.NumCPU()), liveTrials: 2000, replayShare: 0.3, minPerLoop: 1}
	}
	return serveSizes{model: "alexnet", size: 32, minTrials: 480, spanTrials: 32, clients: runtime.NumCPU(), liveTrials: 20000, replayShare: 0.3, minPerLoop: 2}
}

func (sz serveSizes) maxTrials() int { return sz.minTrials + sz.spanTrials - 1 }

func (sz serveSizes) spec(trials, workers int) serve.Spec {
	return serve.Spec{
		V: serve.WireVersion, Model: sz.model, Classes: 4, Size: sz.size, Epochs: 1, Seed: fixtureSeed,
		Error: "bitflip", Scope: "neuron", Backend: "f32", DType: "fp32",
		Trials: trials, Shards: 1, Workers: workers,
	}
}

// pollEvery is the status-poll period of a waiting client.
const pollEvery = 2 * time.Millisecond

// scratchDir makes a fresh directory under root (the benchmark writes
// nowhere outside its checkout).
func scratchDir(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// service is an in-process gofi-serve behind a real HTTP listener.
type service struct {
	srv  *serve.Server
	http *httptest.Server
	dir  string
}

func startService(tmpRoot string) (*service, error) {
	dir, err := scratchDir(tmpRoot, "serve-")
	if err != nil {
		return nil, err
	}
	// Default CheckpointEvery on purpose: the workload measures the
	// service as shipped.
	srv, err := serve.New(serve.Config{Dir: dir, Slots: runtime.NumCPU()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &service{srv: srv, http: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

func (s *service) stop() {
	s.srv.Close()
	s.http.Close()
	os.RemoveAll(s.dir)
}

// client returns a client that holds at most one connection.
func (s *service) client() (*serve.Client, func()) {
	tp := &http.Transport{MaxConnsPerHost: 1}
	return &serve.Client{Base: s.http.URL, HTTP: &http.Client{Transport: tp}}, tp.CloseIdleConnections
}

// campaignTiming is one submitted campaign as its client saw it.
type campaignTiming struct {
	id                string
	trials            int
	submitRTT         float64
	statusRTT         []float64
	firstRecord, done float64 // seconds after the submit POST was sent
	final             serve.Status
}

// runCampaign submits one campaign and polls it to a terminal state.
func runCampaign(ctx context.Context, c *serve.Client, sp serve.Spec, tr *tracer, run int) (campaignTiming, error) {
	ct := campaignTiming{trials: sp.Trials}
	root := tr.start("serve.campaign", 0, run)
	defer tr.end(root)
	t0 := time.Now()
	id := tr.start("serve.Client.Submit", root, run)
	st, err := c.Submit(ctx, sp)
	tr.end(id)
	if err != nil {
		return ct, err
	}
	ct.id, ct.submitRTT = st.ID, time.Since(t0).Seconds()
	id = tr.start("serve.poll_to_first_record", root, run)
	for {
		p0 := time.Now()
		st, err = c.Status(ctx, ct.id)
		if err != nil {
			tr.end(id)
			return ct, err
		}
		ct.statusRTT = append(ct.statusRTT, time.Since(p0).Seconds())
		if ct.firstRecord == 0 && st.Agg.NextTrial > 0 {
			ct.firstRecord = time.Since(t0).Seconds()
			tr.end(id)
			id = tr.start("serve.poll_to_done", root, run)
		}
		if st.State == serve.StateDone || st.State == serve.StateFailed || st.State == serve.StateCancelled || st.State == serve.StatePaused {
			break
		}
		time.Sleep(pollEvery)
	}
	tr.end(id)
	ct.done, ct.final = time.Since(t0).Seconds(), st
	return ct, nil
}

// matches reports whether the served aggregate equals the local one.
func matches(v serve.AggView, a campaign.Aggregate) bool {
	return v.Trials == a.Trials && v.Top1Mis == a.Top1Mis && v.OutOfTop5 == a.OutOfTop5 &&
		v.NonFinite == a.NonFinite && v.BigConfDrop == a.BigConfDrop && v.Skipped == a.Skipped
}

// countReplay streams a settled campaign's log from index 0 and returns
// how many trial events arrived.
func countReplay(ctx context.Context, c *serve.Client, id string) (int, error) {
	n, done := 0, false
	err := c.Stream(ctx, id, 0, func(ev serve.Event) error {
		switch ev.Type {
		case "trial":
			n++
		case "done":
			done = true
		}
		return nil
	})
	if err == nil && !done {
		err = errors.New("replay ended without a done event")
	}
	return n, err
}

// campaignWindow is the measured window: every client is a closed loop
// that submits a campaign, polls it to the end and submits the next,
// for the given seconds. expect is how long a campaign is expected to
// take, in seconds, before any has been seen.
func campaignWindow(ctx context.Context, svc *service, sz serveSizes, seed int64, seconds, expect float64, tr *tracer) ([]campaignTiming, float64, error) {
	win := openWindow(seconds)
	var mu sync.Mutex
	var timings []campaignTiming
	var loopErr error
	var wg sync.WaitGroup
	for cl := 0; cl < sz.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, closeConns := svc.client()
			defer closeConns()
			rng := rand.New(rand.NewSource(seed*1000 + int64(cl)))
			expect := time.Duration(expect * float64(time.Second))
			for n := 0; n < sz.minPerLoop || win.fits(expect); n++ {
				ct, err := runCampaign(ctx, c, sz.spec(sz.minTrials+rng.Intn(sz.spanTrials), 1), tr, (cl+1)*1000+n)
				mu.Lock()
				if err != nil {
					loopErr = err
					mu.Unlock()
					return
				}
				timings = append(timings, ct)
				mu.Unlock()
				expect = time.Duration(ct.done * float64(time.Second))
			}
		}(cl)
	}
	wg.Wait()
	return timings, win.elapsed().Seconds(), loopErr
}

// replayAll is the replay phase: one client streams every settled log
// from index 0, over and over until the phase has run its seconds. It
// returns each campaign's replayed record count (the first pass's, or a
// later wrong one), all trial events received and the phase's wall
// clock.
func replayAll(ctx context.Context, svc *service, timings []campaignTiming, seconds float64, out *run) (map[string]int, int, float64) {
	c, closeConns := svc.client()
	defer closeConns()
	replayed := make(map[string]int, len(timings))
	events := 0
	win := openWindow(seconds)
	for pass := 0; pass == 0 || win.elapsed() < win.limit; pass++ {
		for _, ct := range timings {
			n, err := countReplay(ctx, c, ct.id)
			if err != nil {
				out.notes = append(out.notes, fmt.Sprintf("replay %s: %v", ct.id, err))
				n = -1
			}
			if pass == 0 || n != ct.trials {
				replayed[ct.id] = n
			}
			events += max(n, 0)
		}
	}
	return replayed, events, win.elapsed().Seconds()
}

func runServeWorkload(ctx context.Context, o options, e2e, layers *metricSet, tr *tracer) (run, error) {
	sz := serveSizesFor(o.toy)
	root := tr.start("bench."+o.workload, 0, 0)
	defer tr.end(root)
	if sz.clients > runtime.NumCPU() {
		return run{}, fmt.Errorf("%d clients on %d CPUs", sz.clients, runtime.NumCPU())
	}

	// Set-up: server start and one campaign that trains the fixture every
	// later campaign finds in the server's cache.
	id := tr.start("serve.New+warmup_campaign", root, 0)
	svc, err := startService(o.outDir)
	if err != nil {
		return run{}, err
	}
	defer svc.stop()
	sp := sz.spec(sz.maxTrials(), 1)
	warmClient, closeWarm := svc.client()
	defer closeWarm()
	warm, err := runCampaign(ctx, warmClient, sp, nil, 0)
	setup := time.Since(processStart).Seconds()
	tr.end(id)
	if err != nil {
		return run{}, err
	}
	if warm.final.State != serve.StateDone {
		return run{}, fmt.Errorf("warm-up campaign ended %s: %s", warm.final.State, warm.final.Err)
	}

	// Output check: the same spec run locally, one worker. A served
	// campaign of n trials must report the fold of the local records
	// [0, n).
	id = tr.start("bench.output_check", root, 0)
	cfg, err := sp.Config()
	if err != nil {
		return run{}, err
	}
	t0 := time.Now()
	env, err := experiments.PrepareGenericCampaign(ctx, cfg)
	prepare := time.Since(t0).Seconds()
	if err != nil {
		return run{}, err
	}
	records, err := checkAgainstReference(ctx, env, sz.maxTrials())
	if err != nil {
		return run{}, err
	}
	want := make([]campaign.Aggregate, len(records)+1) // want[n] folds records [0, n)
	for i, rec := range records {
		want[i+1] = want[i]
		want[i+1].AddRecord(rec)
	}
	local := runRep(ctx, env, experiments.ShardRun{Trials: sz.maxTrials()})
	tr.end(id)
	if local.err != nil {
		return run{}, local.err
	}
	if !matches(warm.final.Agg, local.agg) || local.agg != want[sz.maxTrials()] {
		return run{}, fmt.Errorf("served aggregate %+v differs from the local run's %+v", warm.final.Agg, local.agg)
	}

	out := run{correct: true, digest: aggregateDigest(local.agg), sizes: map[string]int{
		"campaign_trials_min": sz.minTrials, "campaign_trials_max": sz.maxTrials(), "clients": sz.clients,
		"shards": 1, "workers": 1, "slots": runtime.NumCPU(), "classes": 4, "in_size": sz.size, "epochs": 1,
	}, detail: map[string]float64{}}

	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	before := svc.srv.Metrics().Snapshot()
	timings, windowWall, err := campaignWindow(ctx, svc, sz, o.seed, seconds*(1-sz.replayShare), warm.done, tr)
	after := svc.srv.Metrics().Snapshot()
	if err != nil {
		return run{}, err
	}
	id = tr.start("serve.replay", root, 0)
	replayed, events, replayWall := replayAll(ctx, svc, timings, seconds*sz.replayShare, &out)
	tr.end(id)

	var dones, firsts, submits, statuses []float64
	trialsDone, trialsSubmitted := 0, 0
	for _, ct := range timings {
		out.attempted++
		trialsSubmitted += ct.trials
		if ct.final.State != serve.StateDone || !matches(ct.final.Agg, want[ct.trials]) || replayed[ct.id] != ct.trials {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("campaign %s: state %s, aggregate %+v, %d replayed records", ct.id, ct.final.State, ct.final.Agg, replayed[ct.id]))
			continue
		}
		trialsDone += ct.trials
		dones, firsts, submits = append(dones, ct.done), append(firsts, ct.firstRecord), append(submits, ct.submitRTT)
		statuses = append(statuses, ct.statusRTT...)
	}
	if len(dones) == 0 {
		return run{}, fmt.Errorf("no campaign completed: %v", out.notes)
	}
	out.detail["campaigns"] = float64(len(timings))
	out.detail["replayed_events"] = float64(events)
	rate := float64(trialsDone) / windowWall
	e2e.set("setup_s", setup)
	e2e.set("ops_per_s", rate)
	e2e.set("latency_p50_ms", median(dones)*1e3)

	if !o.trace {
		return out, nil
	}
	campaigns := float64(len(timings))
	layers.set("campaign_p50_s", median(dones))
	layers.set("campaign_p90_s", quantile(dones, 0.9))
	layers.set("first_record_p50_s", median(firsts))
	layers.set("replay_records_per_s", float64(events)/replayWall)
	layers.set("serve.submit_rtt_ms", median(submits)*1e3)
	layers.set("serve.status_rtt_ms", median(statuses)*1e3)
	perCampaign := func(name string) float64 {
		return float64(after.Counters[name]-before.Counters[name]) / campaigns
	}
	layers.set("serve.checkpoint_writes", perCampaign(serve.MetricCheckpointWrites))
	// Per trial, not per campaign: 1 exactly when the fold lost and
	// repeated nothing.
	layers.set("serve.records_folded", float64(after.Counters[serve.MetricRecordsFolded]-before.Counters[serve.MetricRecordsFolded])/float64(trialsSubmitted))
	layers.set("serve.envcache_hits", perCampaign(serve.MetricEnvCacheHits))
	layers.set("serve.http_requests", perCampaign(serve.MetricHTTPRequests))
	layers.set("experiments.prepare_s", prepare)
	layers.set("experiments.eligible_samples", float64(len(env.Eligible)))

	// The same campaign without the service around it: one local worker
	// per client slot is what the server had to spend.
	csz := campaignSizes{rep: sz.maxTrials(), w1: sz.maxTrials()}
	_, failed, wall, err := traceCampaignLayers(ctx, env, csz, 1, local.wall.Seconds(), root, layers, tr)
	if err != nil {
		return run{}, err
	}
	out.detail["traced_rep_wall_s"] = wall
	if failed > 0 {
		out.correct = false
		out.notes = append(out.notes, fmt.Sprintf("%d trials of the local traced reps failed", failed))
	}
	layers.set("serve.overhead_share", 1-rate/(local.rate(sz.maxTrials())*float64(sz.clients)))

	id = tr.start("serve.probes", root, 0)
	err = probeServeLifecycle(ctx, svc, sz.spec(sz.liveTrials, runtime.NumCPU()), layers, &out)
	tr.end(id)
	if err != nil {
		return run{}, err
	}
	return out, probeEnvLayers(env, o, root, layers, tr)
}

// probeServeLifecycle measures a pause→resume round trip mid-campaign
// and follows one long campaign with a live stream.
//
// Known at seed: a live stream ends without a done event whenever the
// fold has advanced past what the buffered record log has flushed — the
// handler decodes a half-written line and returns. The probe re-opens
// the stream from the next index and counts how often it had to, so the
// defect is a number (live_stream_resumes) instead of a crash.
func probeServeLifecycle(ctx context.Context, svc *service, sp serve.Spec, layers *metricSet, out *run) error {
	c, closeConns := svc.client()
	defer closeConns()
	waitRunning := func(id string) error {
		for {
			st, err := c.Status(ctx, id)
			if err != nil {
				return err
			}
			if st.Agg.NextTrial > 0 {
				return nil
			}
			if st.State == serve.StateFailed {
				return fmt.Errorf("campaign %s failed: %s", id, st.Err)
			}
			time.Sleep(pollEvery)
		}
	}

	st, err := c.Submit(ctx, sp)
	if err != nil {
		return err
	}
	if err := waitRunning(st.ID); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := c.Pause(ctx, st.ID); err != nil {
		return err
	}
	if _, err := c.Resume(ctx, st.ID); err != nil {
		return err
	}
	layers.set("serve.pause_resume_ms", time.Since(t0).Seconds()*1e3)
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		return err
	}

	t0 = time.Now()
	if st, err = c.Submit(ctx, sp); err != nil {
		return err
	}
	next, resumes, settled := 0, 0, false
	var firstRecord time.Duration
	deadline := t0.Add(150 * time.Second)
	for !settled {
		if time.Now().After(deadline) {
			return fmt.Errorf("live stream of %s: no done event after %d records and %d re-opens", st.ID, next, resumes)
		}
		err := c.Stream(ctx, st.ID, next, func(ev serve.Event) error {
			switch ev.Type {
			case "trial":
				if next == 0 {
					firstRecord = time.Since(t0)
				}
				next = ev.Trial.Trial + 1
			case "done":
				settled = true
			case "error":
				return fmt.Errorf("campaign failed: %s", ev.Err)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("live stream of %s: %w", st.ID, err)
		}
		if !settled {
			resumes++
			time.Sleep(5 * time.Millisecond)
		}
	}
	if next != sp.Trials {
		out.correct = false
		out.notes = append(out.notes, fmt.Sprintf("live stream delivered %d of %d records", next, sp.Trials))
	}
	layers.set("serve.live_stream_first_record_ms", firstRecord.Seconds()*1e3)
	layers.set("serve.live_stream_resumes", float64(resumes))
	layers.set("serve.live_stream_done_s", time.Since(t0).Seconds())
	return nil
}
