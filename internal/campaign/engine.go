package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gofi/internal/campaign/sched"
	"gofi/internal/core"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// Cost-table provenance, recorded in MetricSchedCostSource. The timed
// source keeps the value 2 that metrics snapshots already carry.
const (
	costSourceNone = 0
	// costSourceTimed: per-node nanoseconds calibrated from the clean
	// prediction pass (checkpoint walks when PrefixReuse is on, timed
	// chain walks otherwise).
	costSourceTimed = 2
)

// engineMetrics pre-resolves the engine's metric handles so the trial
// loop and collector record through atomics only.
type engineMetrics struct {
	trialTimer  obs.Timer
	trials      *obs.Counter
	skipped     *obs.Counter
	top1        *obs.Counter
	top5        *obs.Counter
	nonFinite   *obs.Counter
	sinkRecords *obs.Counter
	queue       *obs.Gauge
	queueMax    *obs.Gauge
}

func newEngineMetrics(reg *obs.Registry, workers int) *engineMetrics {
	if reg == nil {
		return nil
	}
	reg.Gauge(MetricWorkers).Set(float64(workers))
	return &engineMetrics{
		trialTimer:  reg.Timer(MetricTrialTime),
		trials:      reg.Counter(MetricTrials),
		skipped:     reg.Counter(MetricSkipped),
		top1:        reg.Counter(MetricTop1Changed),
		top5:        reg.Counter(MetricOutOfTop5),
		nonFinite:   reg.Counter(MetricNonFinite),
		sinkRecords: reg.Counter(MetricSinkRecords),
		queue:       reg.Gauge(MetricSinkQueue),
		queueMax:    reg.Gauge(MetricSinkQueueMax),
	}
}

// prefixMetrics resolves the shared prefix-reuse handles (counters are
// atomic, so per-worker runners record into one set).
func prefixMetrics(reg *obs.Registry) core.PrefixMetrics {
	if reg == nil {
		return core.PrefixMetrics{}
	}
	return core.PrefixMetrics{
		Hits:        reg.Counter(MetricPrefixHits),
		Misses:      reg.Counter(MetricPrefixMisses),
		Fallbacks:   reg.Counter(MetricPrefixFallbacks),
		SavedNS:     reg.Histogram(MetricPrefixSaved),
		Region:      reg.Counter(MetricSuffixRegion),
		MaskedExits: reg.Counter(MetricSuffixMaskedExits),
		ExitNode:    reg.Histogram(MetricSuffixExitNode),
	}
}

// observe folds one finished trial's record into the exact counters.
// Called from the single collector goroutine.
func (m *engineMetrics) observe(rec TrialRecord, backlog int, sank bool) {
	m.queue.Set(float64(backlog))
	m.queueMax.Max(float64(backlog))
	m.trials.Inc()
	if sank {
		m.sinkRecords.Inc()
	}
	if rec.Err != "" {
		m.skipped.Inc()
		return
	}
	if rec.Outcome.Top1Changed {
		m.top1.Inc()
	}
	if rec.Outcome.Top1OutOfTop5 {
		m.top5.Inc()
	}
	if rec.Outcome.NonFinite {
		m.nonFinite.Inc()
	}
}

// Trial completion states, tracked per trial index so the final fold can
// run in deterministic trial order over exactly the trials that finished.
const (
	trialPending = iota
	trialDone
	trialSkipped
)

// TrialStream derives global trial t's private random stream from the
// campaign seed alone, via the splitmix64 finalizer over Seed and t.
// This is the determinism contract: everything random about a trial —
// its sample, its fault site(s), and any stochastic error-model draws —
// is a pure function of (Seed, t), never of the worker that executes it.
// Exported so observers and scenario replays can re-derive a trial's
// draws without re-running it; consume the draws in engine order (sample
// first, then arming) to stay aligned. The stream is
// rand.New(rand.NewSource(…)) over the derived seed, draw for draw, on a
// source that seeds only the state its draws read (trialrng.go).
func TrialStream(seed int64, t int) *rand.Rand {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(t+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return rand.New(newTrialSource(int64(z ^ (z >> 31))))
}

// Run executes the campaign and returns the aggregated outcomes.
//
// Contract: for a fixed (Seed, Trials) the returned Aggregate is
// byte-identical regardless of Workers. Cancelling ctx stops the
// campaign at the next trial boundary and returns the aggregate over the
// trials that completed, alongside ctx's error. Per-trial failures
// follow Config.OnError: FailFast aborts (partial aggregate + error),
// SkipAndCount voids the trial into Aggregate.Skipped.
func Run(ctx context.Context, cfg Config) (Aggregate, error) {
	if err := cfg.validate(); err != nil {
		return Aggregate{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 1
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}

	// Internal abort signal: tripped by FailFast trial errors and sink
	// errors in addition to the caller's ctx.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failErr error
	var failOnce sync.Once
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			cancel()
		})
	}

	// Build every worker's replica up front (model construction dominates
	// setup cost, so do it concurrently) and fail before any trial runs
	// if one cannot be built.
	crew := make([]*worker, workers)
	pmet := prefixMetrics(cfg.Metrics)
	// The clean pass has one owner: the fixture's cache when the caller
	// hands one over and PrefixReuse is on, else a table private to this
	// Run — with a checkpoint store of its own under PrefixReuse, without
	// one otherwise, so the reference configuration (reuse off) shares no
	// state with any other Run.
	clean := cfg.Clean
	if !cfg.PrefixReuse {
		clean = newCleanCache(nil)
	} else if clean == nil {
		clean = NewCleanCache(StoreBudget(workers))
	}
	store := clean.store
	var buildWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		buildWG.Add(1)
		go func(w int) {
			defer buildWG.Done()
			inj, err := cfg.NewReplica(w)
			if err != nil {
				fail(fmt.Errorf("campaign: worker %d replica: %w", w, err))
				return
			}
			nn.SetTraining(inj.Model(), false)
			// Each trial reduces its logits to a classification before the
			// next trial touches the replica, so worker models can reuse
			// per-layer output buffers instead of allocating every forward.
			nn.SetOutputReuse(inj.Model(), true)
			// Site capture for TrialRecords rides on the injection trace.
			if len(cfg.Sinks) > 0 {
				inj.EnableTrace(true)
			}
			// Replicas share one registry: perturbation counters are
			// atomic, so campaign-wide totals stay exact.
			inj.SetMetrics(cfg.Metrics)
			crew[w] = &worker{id: w, inj: inj}
			if store != nil {
				// A model whose chain cannot be planned simply runs every
				// trial full-length; reuse is a throughput optimization,
				// never a correctness requirement.
				if runner, err := core.NewPrefixRunnerWithStore(inj, store); err == nil {
					runner.SetMetrics(pmet)
					crew[w].runner, crew[w].plan = runner, runner.Plan()
				}
			}
		}(w)
	}
	buildWG.Wait()
	if failErr != nil {
		return Aggregate{}, failErr
	}
	defer func() {
		for _, w := range crew {
			w.inj.Reset()
		}
	}()

	// Effective lane width: clamp the requested batch to the profiled
	// geometry (a lane must be a batch element the replicas were
	// profiled for). ScheduleSeq ignores the lanes entirely. Resolved
	// before the clean pre-pass so the pass knows whether to time its
	// walks for scheduler calibration.
	K := cfg.TrialBatch
	if K < 1 || cfg.Schedule == ScheduleSeq {
		K = 1
	}
	if pb := crew[0].inj.Config().Batch; K > pb {
		K = pb
	}
	if K > 1 {
		for _, w := range crew {
			if w.plan == nil {
				// No checkpoint store, but the chain decomposition still
				// lets an entry share its clean prefix across lanes.
				w.plan, _ = w.inj.BuildPrefixPlan()
			}
		}
	}

	// steal fans the indices [0, n) out across the workers by work
	// stealing and waits for them; a worker stops claiming once the run
	// is cancelled.
	steal := func(n int, do func(w *worker, i int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, w := range crew {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for runCtx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					do(w, i)
				}
			}(w)
		}
		wg.Wait()
	}

	// Pre-pass: derive every trial's sample choice, then fetch each
	// distinct sample's clean prediction from the clean cache, in
	// parallel, before fan-out; what the cache lacks is computed here,
	// exactly once however many Runs ask.
	sampleOf := make([]int, cfg.Trials)
	var order []int // distinct samples, first-use order
	slot := make(map[int]int, len(cfg.Eligible))
	for t := range sampleOf {
		_, idx := cfg.draw(t)
		sampleOf[t] = idx
		if _, ok := slot[idx]; !ok {
			slot[idx] = len(order)
			order = append(order, idx)
		}
	}
	cleanVals := make([]cleanPrediction, len(order))
	var cleanComputed atomic.Int64
	steal(len(order), func(w *worker, i int) {
		cp, computed, err := clean.get(runCtx, order[i], func() (cleanPrediction, []int64, error) {
			return cleanPredict(cfg, w, order[i])
		})
		if err != nil {
			fail(err)
			return
		}
		cleanVals[i] = cp
		if computed {
			cleanComputed.Add(1)
		}
	})
	if failErr != nil {
		return Aggregate{}, failErr
	}
	if err := ctx.Err(); err != nil {
		return Aggregate{}, err
	}
	if reg := cfg.Metrics; reg != nil {
		computed := cleanComputed.Load()
		reg.Counter(MetricCleanComputed).Add(computed)
		reg.Counter(MetricCleanReused).Add(int64(len(order)) - computed)
	}
	x := &executor{cfg: cfg, clean: make(map[int]cleanPrediction, len(order)), prefixFallbacks: pmet.Fallbacks}
	injs := make([]*core.Injector, len(crew))
	for i, w := range crew {
		injs[i] = w.inj
	}
	x.weightsShared = core.WeightStorageShared(injs...)
	for i, idx := range order {
		x.clean[idx] = cleanVals[i]
	}

	// Fault-space dedup pre-pass: replay every trial's fault-deciding
	// draws through Config.Key and map later trials onto the earliest
	// trial with the same key. The pass is serial — canonical means
	// LOWEST index, and a handful of RNG draws per trial is cheap next to
	// a forward pass — and a pure function of (Seed, Trials), so dedup
	// never perturbs the determinism contract: duplicates are filled from
	// a canonical outcome that is bit-identical to what they would have
	// computed (the Key soundness contract).
	isDup := make([]bool, cfg.Trials)
	var dupsOf map[int][]int // canonical -> its duplicates, ascending
	dupCount, keyCount := 0, 0
	if cfg.Key != nil {
		dupsOf = make(map[int][]int)
		canon := make(map[string]int, cfg.Trials)
		for t := 0; t < cfg.Trials; t++ {
			rng, sample := cfg.draw(t)
			key, ok := cfg.Key(rng, cfg.Offset+t, sample)
			if !ok {
				continue
			}
			if c, seen := canon[key]; seen {
				isDup[t] = true
				dupsOf[c] = append(dupsOf[c], t)
				dupCount++
			} else {
				canon[key] = t
			}
		}
		keyCount = len(canon)
	}

	// Plan: the entry list the trial phase executes. Duplicates are never
	// scheduled; their records come from the canonical trial's finish.
	// With lanes to use, probe every live trial once to learn its lane
	// safety and prefix cut, calibrate the cost table, and let the
	// scheduler decide which trials share K-lane forwards and which run
	// alone. Without, there is nothing to decide: one width-1 entry per
	// live trial, in index order.
	var entries []sched.Entry
	if K > 1 {
		x.bm = newBatchMetrics(cfg.Metrics, K)
		planStart := time.Now()
		specs := make([]sched.Trial, cfg.Trials)
		steal(cfg.Trials, func(w *worker, t int) {
			if !isDup[t] {
				specs[t] = x.probe(w, t)
			}
		})
		live := specs[:0]
		for t := range specs {
			if !isDup[t] {
				live = append(live, specs[t])
			}
		}
		costs, costSource := buildCostTable(clean)
		plan := sched.Build(live, sched.Config{
			K:     K,
			Mode:  cfg.Schedule,
			Reuse: crew[0].runner != nil,
			Costs: costs,
		})
		entries = plan.Entries
		if x.bm != nil {
			x.bm.planTimer.Since(planStart)
		}
		if reg := cfg.Metrics; reg != nil {
			reg.Gauge(MetricSchedMode).Set(float64(cfg.Schedule))
			modeled := 0.0
			if plan.Modeled {
				modeled = 1
			}
			reg.Gauge(MetricSchedModeled).Set(modeled)
			reg.Gauge(MetricSchedCostSource).Set(float64(costSource))
			reg.Gauge(MetricSchedPacked).Set(float64(plan.Packed))
			reg.Gauge(MetricSchedSolo).Set(float64(plan.Solo))
			reg.Gauge(MetricSchedSeq).Set(float64(plan.Unpackable))
		}
	} else {
		entries = make([]sched.Entry, 0, cfg.Trials-dupCount)
		for t, sample := range sampleOf {
			if !isDup[t] {
				entries = append(entries, sched.Entry{Trials: []int{t}, Sample: sample})
			}
		}
	}

	// Trial phase: work-stealing over entry indices. A worker owns every
	// trial of an entry it claims, so the trial-indexed outcomes/state
	// slots need no locks; the fold after the barrier reads them in trial
	// order and is oblivious to how trials were grouped.
	outcomes := make([]Outcome, cfg.Trials)
	state := make([]uint8, cfg.Trials)
	records := make(chan TrialRecord, workers*4)
	met := newEngineMetrics(cfg.Metrics, workers)

	// stopAt is the GLOBAL trial index the stopping rule fired on (-1:
	// never). Written only by the collector goroutine, read by the main
	// goroutine after collectorWG.Wait (the WaitGroup orders the
	// accesses).
	stopAt := -1
	var collectorWG sync.WaitGroup
	collectorWG.Add(1)
	go func() {
		defer collectorWG.Done()
		every := cfg.ProgressEvery
		if every <= 0 {
			every = cfg.Trials / 100
			if every < 1 {
				every = 1
			}
		}
		done, skipped := 0, 0
		sinksOK := true
		start := time.Now()
		deliver := func(rec TrialRecord, backlog int) {
			if sinksOK {
				for _, s := range cfg.Sinks {
					if err := s.Record(rec); err != nil {
						fail(fmt.Errorf("campaign: sink: %w", err))
						sinksOK = false
						break
					}
				}
			}
			if met != nil {
				met.observe(rec, backlog, sinksOK && len(cfg.Sinks) > 0)
			}
			done++
			if rec.Err != "" {
				skipped++
			}
			if cfg.Progress != nil && (done%every == 0 || done == cfg.Trials) {
				elapsed := time.Since(start)
				p := Progress{Done: done, Total: cfg.Trials, Skipped: skipped, Elapsed: elapsed}
				if secs := elapsed.Seconds(); secs > 0 {
					p.TrialsPerSec = float64(done) / secs
					p.ETA = time.Duration(float64(cfg.Trials-done) / p.TrialsPerSec * float64(time.Second))
				}
				cfg.Progress(p)
			}
		}
		if cfg.Stop == nil {
			// No watcher to order for: records reach sinks in completion
			// order.
			for rec := range records {
				deliver(rec, len(records))
			}
			return
		}
		// Stopping mode: buffer out-of-order completions and advance a
		// contiguous frontier over trial indices, folding each trial into
		// the watcher in strict index order. The stop decision is thereby
		// a pure function of the index-ordered stream — the watcher never
		// sees worker interleaving — and sinks receive records in trial
		// order, making their streams byte-identical across schedules.
		// Records arriving after the rule fires are computed-but-discarded
		// (their trials are beyond the stop index by construction: the
		// frontier had already consumed every earlier index).
		buffered := make(map[int]TrialRecord, workers*4)
		frontier := cfg.Offset // records carry global trial indices
		for rec := range records {
			if stopAt >= 0 {
				continue // drain
			}
			buffered[rec.Trial] = rec
			for {
				r, ok := buffered[frontier]
				if !ok {
					break
				}
				delete(buffered, frontier)
				deliver(r, len(records))
				cfg.Stop.Observe(frontier, r.Err == "" && r.Outcome.Top1Changed, r.Err != "")
				if cfg.Stop.ShouldStop() {
					stopAt = frontier
					cancel() // halt the leg; not an error (failErr untouched)
					break
				}
				frontier++
			}
		}
	}()

	// finish folds one completed trial into the worker-owned slots and the
	// collector stream, then fans the outcome out to the trial's
	// fault-space duplicates: a worker that claims a canonical trial owns
	// its duplicates' slots too (no other worker ever touches them), so
	// the writes stay race-free. Duplicate records carry their own trial
	// index over the canonical outcome — downstream (sinks, watcher
	// frontier, fold) cannot tell a filled duplicate from an executed
	// trial, which is exactly the dedup contract.
	finish := func(w, t int, rec TrialRecord, err error) {
		emit := func(t int, rec TrialRecord, err error) {
			if err != nil {
				if cfg.OnError == SkipAndCount {
					state[t] = trialSkipped
				} else {
					fail(fmt.Errorf("campaign: worker %d trial %d: %w", w, t, err))
				}
			} else {
				outcomes[t] = rec.Outcome
				state[t] = trialDone
			}
			records <- rec
		}
		emit(t, rec, err)
		for _, d := range dupsOf[t] {
			drec := rec
			drec.Trial = cfg.Offset + d // records carry global indices
			emit(d, drec, err)
		}
	}

	steal(len(entries), func(w *worker, i int) {
		en := entries[i]
		var start time.Time
		if met != nil {
			start = time.Now()
		}
		recs, errs := x.execute(w, en)
		if met != nil {
			// One latency sample per executed trial: members of a shared
			// forward split its wall time evenly.
			per := time.Since(start) / time.Duration(len(en.Trials))
			for range en.Trials {
				met.trialTimer.Observe(per)
			}
		}
		for j, t := range en.Trials {
			finish(w.id, t, recs[j], errs[j])
		}
	})
	close(records)
	collectorWG.Wait()

	// Deterministic fold: trial order, completed trials only. Summing the
	// float fields in index order makes the Aggregate byte-identical for
	// any worker count. An early stop caps the fold at the stop index —
	// trials beyond it may have been computed before the cancel landed,
	// but folding them would make the partial aggregate depend on worker
	// timing; discarding them keeps it a pure function of (Seed, Trials).
	limit := cfg.Trials
	if stopAt >= 0 {
		limit = stopAt - cfg.Offset + 1
	}
	var total Aggregate
	for t := 0; t < limit; t++ {
		switch state[t] {
		case trialDone:
			total.Add(outcomes[t])
		case trialSkipped:
			total.Skipped++
		}
	}
	if reg := cfg.Metrics; reg != nil {
		if store != nil {
			reg.Gauge(MetricPrefixEvictions).Set(float64(store.Evictions()))
			reg.Gauge(MetricPrefixStoreBytes).Set(float64(store.UsedBytes()))
		}
		if cfg.Stop != nil {
			reg.Gauge(MetricStopTrial).Set(float64(stopAt))
			_, lo, hi := cfg.Stop.Interval()
			reg.Gauge(MetricCIWidth).Set((hi - lo) / 2)
			if stopAt >= 0 {
				reg.Counter(MetricStopSaved).Add(int64(cfg.Trials - limit))
			}
			if sw, ok := cfg.Stop.(strataInfo); ok {
				reg.Gauge(MetricStrataCount).Set(float64(sw.NumStrata()))
				reg.Gauge(MetricStrataMinTrials).Set(float64(sw.MinStratumTrials()))
			}
		}
		if cfg.Key != nil {
			reg.Counter(MetricDedupSaved).Add(int64(dupCount))
			reg.Gauge(MetricDedupKeys).Set(float64(keyCount))
		}
	}
	if failErr != nil {
		return total, failErr
	}
	if err := ctx.Err(); err != nil {
		return total, err
	}
	return total, nil
}

// cleanPredict runs one un-faulted inference and extracts the clean
// Top-1/Top-5/confidence reference for a sample. When a prefix runner is
// attached, the clean pass doubles as the checkpoint walk: it snapshots
// every chain-node boundary for the sample, so the armed trials that
// follow resume from direct hits instead of paying a first-miss prefix.
// With no runner but a chain plan (batching on, reuse off), the pass
// walks the chain node by node instead of calling nn.Run — bit-identical
// output, since Step composition IS the forward pass. Either walk returns
// per-node nanoseconds (the runner's minimums, core.PrefixRunner.
// NodeCostsNS), which the clean cache notes before it publishes the
// sample: they are the scheduler's only cost source.
func cleanPredict(cfg Config, w *worker, idx int) (cp cleanPrediction, nodeNS []int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: clean inference for sample %d: panic: %v", idx, r)
		}
	}()
	x := cfg.input(idx)
	w.inj.Reset()
	var logits *tensor.Tensor
	switch {
	case w.runner != nil:
		if logits, err = w.runner.Warm(idx, x); err != nil {
			return cp, nil, err
		}
		nodeNS = w.runner.NodeCostsNS()
	case w.plan != nil:
		chain := w.plan.Chain()
		nodeNS = make([]int64, chain.Len())
		cur := x
		for n := 0; n < chain.Len(); n++ {
			t0 := time.Now()
			if cur, err = chain.Step(n, cur); err != nil {
				return cp, nil, err
			}
			if nodeNS[n] = time.Since(t0).Nanoseconds(); nodeNS[n] <= 0 {
				nodeNS[n] = 1
			}
		}
		logits = cur
	default:
		logits = nn.Run(w.inj.Model(), x)
	}
	probs := tensor.SoftmaxRows(logits)
	cp = cleanPrediction{
		top1: tensor.ArgMaxRows(logits)[0],
		top5: tensor.TopK(logits, 5)[0],
	}
	cp.conf = float64(probs.At(0, cp.top1))
	cp.outcome = classify(logits, cp)
	return cp, nodeNS, nil
}

// buildCostTable assembles the scheduler's per-chain-node cost table: the
// clean cache's per-node minimums across every clean walk it has seen,
// this Run's or another's. Every entry the cache publishes comes with its
// walk's timings, so a Run that found all its samples there still finds
// them timed. nil only when no walk could be timed (a chain that cannot
// be planned); the scheduler then falls back to unconditional chunking.
func buildCostTable(clean *CleanCache) (*sched.CostTable, int) {
	if t := sched.NewCostTableNS(clean.nodeCosts()); t.Usable() {
		return t, costSourceTimed
	}
	return nil, costSourceNone
}
