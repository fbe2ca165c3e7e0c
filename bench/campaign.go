package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/experiments"
	"gofi/internal/obs"
	"gofi/internal/serve"
)

// campaignShape is what distinguishes the three local campaign
// workloads: same densenet fixture, different backend and fault scope.
type campaignShape struct {
	backend, dtype, scope string
	// repTrials is one timed env.Run: large enough that replica build,
	// clean pass and planning amortise to about nothing, which is what
	// separates these workloads from serve_small_campaigns.
	repTrials int
}

var campaignShapes = map[string]campaignShape{
	"neuron_f32_deep":  {backend: "f32", dtype: "fp32", scope: "neuron", repTrials: 4000},
	"neuron_int8_deep": {backend: "int8", dtype: "int8", scope: "neuron", repTrials: 5000},
	"weight_f32_full":  {backend: "f32", dtype: "fp32", scope: "weight", repTrials: 1500},
}

// campaignSizes are a campaign workload's trial counts.
type campaignSizes struct {
	model                string
	size                 int
	rep, warm, check, w1 int
}

func sizesFor(shape campaignShape, toy bool) campaignSizes {
	if toy {
		return campaignSizes{model: "alexnet", size: 16, rep: 64, warm: 16, check: 32, w1: 32}
	}
	return campaignSizes{model: "densenet", size: 32, rep: shape.repTrials, warm: shape.repTrials / 8, check: 256, w1: shape.repTrials / 2}
}

// fixtureSeed trains every workload's fixture. It is a constant, and
// -seed drives the trial streams instead, because the fixture decides
// how many samples are eligible and with that the working set of the
// prefix-checkpoint stores: from one fixture seed to the next trial
// throughput moved by ±12 % and peak RSS by ±20 %, which is a workload
// dimension, not noise a seed should add.
const fixtureSeed = 1

// prepareCampaign builds the configuration gofi-campaign would build for
// the same flags, by way of the wire spec both front ends share, trains
// the fixture and points the engine's trial streams at seed.
func prepareCampaign(ctx context.Context, model string, size int, shape campaignShape, seed int64, trials, workers int) (*experiments.CampaignEnv, error) {
	cfg, err := serve.Spec{
		V: serve.WireVersion, Model: model, Classes: 4, Size: size, Epochs: 1, Seed: fixtureSeed,
		Error: "bitflip", Scope: shape.scope, Backend: shape.backend, DType: shape.dtype,
		Trials: trials, Workers: workers,
	}.Config()
	if err != nil {
		return nil, err
	}
	env, err := experiments.PrepareGenericCampaign(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// Every trial's randomness is a function of (CampaignSeed, index).
	env.CampaignSeed = seed
	return env, nil
}

// aggregateDigest is the workload's simulated statistics, hashed: a
// change that only makes the engine faster must leave it identical.
func aggregateDigest(aggs ...campaign.Aggregate) string {
	h := sha256.New()
	for _, a := range aggs {
		for _, v := range []uint64{
			uint64(a.Trials), uint64(a.Top1Mis), uint64(a.OutOfTop5), uint64(a.NonFinite),
			math.Float64bits(a.ConfDropSum), uint64(a.BigConfDrop), uint64(a.Skipped),
		} {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// collectRecords runs trials [0, n) and returns the records by index.
func collectRecords(ctx context.Context, env *experiments.CampaignEnv, n int) ([]campaign.TrialRecord, error) {
	recs := make([]campaign.TrialRecord, n)
	seen := 0
	_, err := env.Run(ctx, experiments.ShardRun{Trials: n, Sinks: []campaign.TrialSink{
		campaign.SinkFunc(func(r campaign.TrialRecord) error {
			if r.Trial < 0 || r.Trial >= n {
				return fmt.Errorf("record for trial %d outside [0,%d)", r.Trial, n)
			}
			recs[r.Trial] = r
			seen++
			return nil
		}),
	}})
	if err == nil && seen != n {
		err = fmt.Errorf("%d records for %d trials", seen, n)
	}
	return recs, err
}

// checkAgainstReference runs trials [0, n) under the measured
// configuration and under the plainest one the engine has (one worker,
// sequential schedule, no prefix reuse) and requires equal records,
// which it returns.
func checkAgainstReference(ctx context.Context, env *experiments.CampaignEnv, n int) ([]campaign.TrialRecord, error) {
	got, err := collectRecords(ctx, env, n)
	if err != nil {
		return nil, fmt.Errorf("measured configuration: %w", err)
	}
	ref := *env
	ref.Cfg.Workers, ref.Cfg.Schedule, ref.Cfg.PrefixReuse = 1, campaign.ScheduleSeq, false
	want, err := collectRecords(ctx, &ref, n)
	if err != nil {
		return nil, fmt.Errorf("reference configuration: %w", err)
	}
	for i := range want {
		g, w := got[i], want[i]
		g.Worker, w.Worker = 0, 0 // which worker ran a trial is timing, not result
		if g != w {
			return nil, fmt.Errorf("trial %d differs from the reference configuration:\n got  %+v\n want %+v", i, g, w)
		}
	}
	return got, nil
}

// repOutcome is one env.Run of a workload, timed.
type repOutcome struct {
	agg   campaign.Aggregate
	start time.Time
	wall  time.Duration
	err   error
}

func (r repOutcome) rate(trials int) float64 { return float64(trials) / r.wall.Seconds() }

// failedTrials counts the rep's trials that did not produce an outcome.
func (r repOutcome) failedTrials(trials int) int {
	if r.err != nil {
		return trials
	}
	return trials - r.agg.Trials
}

func runRep(ctx context.Context, env *experiments.CampaignEnv, sr experiments.ShardRun) repOutcome {
	t0 := time.Now()
	agg, err := env.Run(ctx, sr)
	return repOutcome{agg: agg, start: t0, wall: time.Since(t0), err: err}
}

func runCampaignWorkload(ctx context.Context, o options, e2e, layers *metricSet, tr *tracer) (run, error) {
	shape := campaignShapes[o.workload]
	sz := sizesFor(shape, o.toy)
	workers := runtime.NumCPU()
	root := tr.start("bench."+o.workload, 0, 0)
	defer tr.end(root)

	id := tr.start("experiments.PrepareGenericCampaign", root, 0)
	env, err := prepareCampaign(ctx, sz.model, sz.size, shape, o.seed, sz.rep, workers)
	setup := time.Since(processStart).Seconds()
	tr.end(id)
	if err != nil {
		return run{}, err
	}

	id = tr.start("bench.output_check", root, 0)
	_, err = checkAgainstReference(ctx, env, sz.check)
	tr.end(id)
	if err != nil {
		return run{}, err
	}
	if warm := runRep(ctx, env, experiments.ShardRun{Trials: sz.warm}); warm.err != nil {
		return run{}, fmt.Errorf("warm-up rep: %w", warm.err)
	}

	out := run{correct: true, sizes: map[string]int{
		"rep_trials": sz.rep, "warmup_trials": sz.warm, "check_trials": sz.check, "workers": workers,
		"classes": 4, "in_size": sz.size, "epochs": 1,
	}, detail: map[string]float64{}}

	// The timed window: a closed loop of identical reps.
	var rates, walls []float64
	var first campaign.Aggregate
	seconds := o.seconds
	if o.trace {
		// The traced run needs one plain rep (the base of the tracing
		// overhead) and spends the rest of its time on the layers.
		seconds = 0
	}
	win := openWindow(seconds)
	for rep := 0; rep == 0 || win.fits(time.Duration(median(walls)*float64(time.Second))); rep++ {
		id := tr.start("campaign.Run", root, rep+1)
		r := runRep(ctx, env, experiments.ShardRun{Trials: sz.rep})
		tr.end(id)
		out.attempted += sz.rep
		out.failed += r.failedTrials(sz.rep)
		if r.err != nil {
			out.notes = append(out.notes, fmt.Sprintf("rep %d: %v", rep, r.err))
			continue
		}
		if rep == 0 {
			first = r.agg
		} else if r.agg != first {
			out.correct = false
			out.notes = append(out.notes, fmt.Sprintf("rep %d aggregate %+v differs from rep 0 %+v", rep, r.agg, first))
		}
		rates = append(rates, r.rate(sz.rep))
		walls = append(walls, r.wall.Seconds())
	}
	if len(rates) == 0 {
		return run{}, fmt.Errorf("no rep completed: %v", out.notes)
	}
	out.digest = aggregateDigest(first)
	out.detail["reps"] = float64(len(rates))
	out.detail["ops_per_s_min"], out.detail["ops_per_s_max"] = slices.Min(rates), slices.Max(rates)
	e2e.set("setup_s", setup)
	e2e.set("ops_per_s", median(rates))
	e2e.set("latency_p50_ms", median(walls)*1e3)

	if o.trace {
		layers.set("experiments.prepare_s", setup)
		layers.set("experiments.eligible_samples", float64(len(env.Eligible)))
		attempted, failed, wall, err := traceCampaignLayers(ctx, env, sz, workers, median(walls), root, layers, tr)
		if err != nil {
			return run{}, err
		}
		out.attempted, out.failed = out.attempted+attempted, out.failed+failed
		out.detail["traced_rep_wall_s"] = wall
		if err := probeEnvLayers(env, o, root, layers, tr); err != nil {
			return run{}, err
		}
	}
	return out, nil
}

// traceCampaignLayers takes the campaign package's numbers from
// outside: one rep with a timestamping sink and a registry splits the
// wall clock into start-up, steady state and tail and reads the engine's
// own counters; one rep on a single worker gives the scaling base.
// plainWall is the same rep untraced. It returns how many trials it ran,
// how many of them failed, and the traced rep's wall clock.
func traceCampaignLayers(ctx context.Context, env *experiments.CampaignEnv, sz campaignSizes, workers int, plainWall float64, parent int, layers *metricSet, tr *tracer) (attempted, failed int, wall float64, err error) {
	reg := obs.NewRegistry()
	var firstRec, lastRec time.Time
	sink := campaign.SinkFunc(func(campaign.TrialRecord) error {
		lastRec = time.Now()
		if firstRec.IsZero() {
			firstRec = lastRec
		}
		return nil
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	r := runRep(ctx, env, experiments.ShardRun{Trials: sz.rep, Sinks: []campaign.TrialSink{sink}, Metrics: reg})
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&after)
	if r.err != nil {
		return 0, 0, 0, fmt.Errorf("traced rep: %w", r.err)
	}
	// The three phases are cut at the sink's own timestamps, so they sum
	// to the rep's wall clock exactly.
	t0, end := r.start, r.start.Add(r.wall)
	id := tr.add("campaign.Run", parent, 100, t0, end)
	tr.add("campaign.startup", id, 100, t0, firstRec)
	tr.add("campaign.steady", id, 100, firstRec, lastRec)
	tr.add("campaign.tail", id, 100, lastRec, end)
	layers.set("campaign.startup_ms", firstRec.Sub(t0).Seconds()*1e3)
	layers.set("campaign.steady_s", lastRec.Sub(firstRec).Seconds())
	layers.set("campaign.tail_ms", end.Sub(lastRec).Seconds()*1e3)
	layers.set("bench.trace_overhead_pct", (r.wall.Seconds()-plainWall)/plainWall*100)
	layers.set("campaign.cpu_busy_share", (cpu1-cpu0)/(r.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	layers.set("campaign.alloc_mb_per_ktrials", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(sz.rep)*1000)
	layers.set("campaign.gc_cycles", float64(after.NumGC-before.NumGC))

	snap := reg.Snapshot()
	hits, misses := float64(snap.Counters[campaign.MetricPrefixHits]), float64(snap.Counters[campaign.MetricPrefixMisses])
	layers.set("campaign.prefix_hits", hits)
	layers.set("campaign.prefix_misses", misses)
	layers.set("campaign.prefix_fallbacks", float64(snap.Counters[campaign.MetricPrefixFallbacks]))
	if hits+misses > 0 {
		layers.set("campaign.prefix_hit_ratio", hits/(hits+misses))
	}
	layers.set("campaign.sched_packed_trials", snap.Gauges[campaign.MetricSchedPacked])
	layers.set("campaign.sched_solo_trials", snap.Gauges[campaign.MetricSchedSolo])
	layers.set("campaign.sched_seq_trials", snap.Gauges[campaign.MetricSchedSeq])
	layers.set("campaign.batch_seq_fallbacks", float64(snap.Counters[campaign.MetricBatchSeqFallbacks]))
	layers.set("campaign.skipped", float64(snap.Counters[campaign.MetricSkipped]))
	layers.set("campaign.sink_queue_max", snap.Gauges[campaign.MetricSinkQueueMax])
	layers.set("core.perturb_neuron", float64(snap.Counters[core.MetricNeuronPerturbations]))
	layers.set("core.perturb_weight", float64(snap.Counters[core.MetricWeightPerturbations]))

	id = tr.start("campaign.Run.w1", parent, 101)
	w1 := runRep(ctx, env, experiments.ShardRun{Trials: sz.w1, Workers: 1})
	tr.end(id)
	if w1.err != nil {
		return 0, 0, 0, fmt.Errorf("single-worker rep: %w", w1.err)
	}
	layers.set("campaign.trials_per_s_w1", w1.rate(sz.w1))
	layers.set("campaign.scaling_efficiency", float64(sz.rep)/plainWall/(float64(workers)*w1.rate(sz.w1)))
	return sz.rep + sz.w1, r.failedTrials(sz.rep) + w1.failedTrials(sz.w1), r.wall.Seconds(), nil
}
