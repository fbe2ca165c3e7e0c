// Package campaign runs large fault-injection campaigns: thousands of
// independent trials, each arming a perturbation on a model replica,
// running an inference, and classifying the outcome against the clean
// prediction. Trials fan out across worker goroutines, each owning a
// private model+injector replica that shares trained weight storage with
// its siblings (models are not goroutine-safe; weights are read-only
// during neuron-fault campaigns).
//
// The execution engine (engine.go) guarantees a determinism contract: a
// campaign's Aggregate is a pure function of (Seed, Trials), independent
// of Workers and of scheduling. Runs are cancellable through
// context.Context and stream one TrialRecord per trial to pluggable
// sinks (sink.go).
//
// This is the harness behind the paper's §IV-A study (107 million
// injections on their testbed; scaled down here) and the per-layer
// vulnerability analyses of §IV-C.
package campaign

import (
	"fmt"
	"math"
	"math/rand"

	"gofi/internal/campaign/sched"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// Schedule selects how the engine plans trial execution — re-exported
// from internal/campaign/sched so callers configure campaigns without
// importing the scheduler. It is an in-process setting, not a user
// surface: ScheduleSeq (with PrefixReuse off) is the reference
// configuration the goldens and the benchmark compare against, and
// SchedulePack is how tests reach multi-lane entries while reuse is on.
type Schedule = sched.Mode

const (
	// ScheduleAuto (the zero value, and the default) prices batched
	// packing against sequential execution per trial group with the
	// calibrated cost model and runs whichever is cheaper.
	ScheduleAuto = sched.ModeAuto
	// SchedulePack packs unconditionally: every compatible trial group
	// chunks into TrialBatch-sized entries, cost model or no.
	SchedulePack = sched.ModePack
	// ScheduleSeq runs every trial as its own width-1 entry, as if
	// TrialBatch were 1.
	ScheduleSeq = sched.ModeSeq
)

// Metric names recorded by the engine when Config.Metrics is set. The
// counters and histogram counts are exact and — like the Aggregate —
// deterministic in (Seed, Trials) regardless of Workers; the gauges and
// histogram timings describe this particular run.
const (
	// MetricTrialTime is the per-trial latency histogram (nanoseconds):
	// exactly one sample per executed trial. A trial that shared a
	// multi-lane forward contributes the entry's wall time divided by
	// its width.
	MetricTrialTime = "campaign.trial_ns"
	// MetricTrials counts finished trials, including skipped ones.
	MetricTrials = "campaign.trials"
	// MetricSkipped counts trials voided under SkipAndCount.
	MetricSkipped = "campaign.skipped"
	// MetricTop1Changed / MetricOutOfTop5 / MetricNonFinite count trial
	// outcomes, mirroring the Aggregate fields.
	MetricTop1Changed = "campaign.outcome.top1_changed"
	MetricOutOfTop5   = "campaign.outcome.top1_out_of_top5"
	MetricNonFinite   = "campaign.outcome.non_finite"
	// MetricSinkRecords counts records delivered to the sinks.
	MetricSinkRecords = "campaign.sink.records"
	// MetricSinkQueue is the collector's backlog when each record is
	// dequeued; MetricSinkQueueMax is its high-water mark. A queue that
	// rides near its capacity (4 per worker) means the sinks are the
	// bottleneck, not the trial workers.
	MetricSinkQueue    = "campaign.sink.queue"
	MetricSinkQueueMax = "campaign.sink.queue_max"
	// MetricWorkers is the effective worker count for the run.
	MetricWorkers = "campaign.workers"
	// MetricPrefixHits / MetricPrefixMisses count clean-prefix checkpoint
	// lookups during armed trial forwards (PrefixReuse on);
	// MetricPrefixFallbacks counts trials that ran the full forward
	// because no clean prefix exists (the earliest layer a fault reaches
	// sits in the first chain node) or because a weight fault was armed
	// on replicas that share weight storage. Hit/miss splits depend on
	// worker scheduling and store pressure, so — unlike the outcome
	// counters — they describe this particular run.
	MetricPrefixHits      = "campaign.prefix.hits"
	MetricPrefixMisses    = "campaign.prefix.misses"
	MetricPrefixFallbacks = "campaign.prefix.fallbacks"
	// MetricPrefixEvictions / MetricPrefixStoreBytes are gauges set when
	// Run ends: snapshots the clean cache's checkpoint store has pushed
	// out under its byte budget (over the store's life, so on a fixture's
	// cache they accumulate across Runs), and the bytes it held at the
	// end. Evictions above zero mean the clean working set did not fit
	// and misses recomputed prefixes the store had held before.
	MetricPrefixEvictions  = "campaign.prefix.evictions"
	MetricPrefixStoreBytes = "campaign.prefix.store_bytes"
	// MetricCleanComputed / MetricCleanReused split the distinct samples a
	// Run drew into those whose clean pass it ran itself and those the
	// clean cache already held (or another Run was computing). Like the
	// hit/miss split they describe this particular run: on a private
	// cache everything is computed, on a warm fixture nothing.
	MetricCleanComputed = "campaign.clean.computed"
	MetricCleanReused   = "campaign.clean.reused"
	// MetricPrefixSaved is a histogram of nanoseconds saved per cache
	// hit: the recorded cost of the prefix computation the hit avoided.
	MetricPrefixSaved = "campaign.prefix_reuse_ns_saved"
	// MetricSuffixRegion counts trials that ran their suffix by region
	// (solo neuron-fault trials under PrefixReuse, see core.PrefixRunner.
	// ForwardRegion); MetricSuffixMaskedExits those of them that stopped
	// early because the fault was masked, and MetricSuffixExitNode is a
	// histogram of the chain node whose output settled back to clean. On
	// a store that holds every boundary they are functions of the trials;
	// under eviction a trial may fall back to the dense suffix before it
	// could exit.
	MetricSuffixRegion      = "campaign.suffix.region"
	MetricSuffixMaskedExits = "campaign.suffix.masked_exits"
	MetricSuffixExitNode    = "campaign.suffix.exit_node"
	// MetricBatchK is the effective trial-batch width after clamping to
	// the replicas' profiled batch (recorded only when batching is on).
	MetricBatchK = "campaign.batch.k"
	// MetricBatchTrialsPacked counts trials that executed inside a
	// multi-trial batched forward (lane-armed, not fallen back).
	MetricBatchTrialsPacked = "campaign.batch.trials_packed"
	// MetricBatchFill is a histogram of executed pack sizes (lanes per
	// batched forward) — low fill means the packer found few compatible
	// trials per (sample, cut) group.
	MetricBatchFill = "campaign.batch.fill"
	// MetricBatchSeqFallbacks counts trials that had to run as width-1
	// entries while lanes were in use: weight faults, explicit
	// multi-batch sites, arm errors, and lanes re-run after a
	// batched-forward error.
	MetricBatchSeqFallbacks = "campaign.batch.seq_fallbacks"
	// MetricBatchPackTime records the probe + plan phase (nanoseconds),
	// once per run that uses lanes. Forward latency, at any entry
	// width, is MetricTrialTime.
	MetricBatchPackTime = "campaign.batch.pack_ns"
	// MetricSchedMode is the schedule mode the plan was built under
	// (0 auto, 1 pack, 2 seq — sched.Mode values), recorded only when
	// the scheduler runs (TrialBatch > 1).
	MetricSchedMode = "campaign.sched.mode"
	// MetricSchedModeled is 1 when the cost model ranked the plan and 0
	// when the scheduler fell back to unconditional chunking (no usable
	// cost table).
	MetricSchedModeled = "campaign.sched.modeled"
	// MetricSchedCostSource reports where the cost table came from:
	// 0 none (no walk could be timed), 2 timed clean-pass calibration.
	MetricSchedCostSource = "campaign.sched.cost_source"
	// MetricSchedPacked / MetricSchedSolo / MetricSchedSeq partition
	// the planned trials: placed in multi-trial packs, packable but
	// priced cheaper alone, and forced into width-1 entries
	// (weight faults, multi-batch sites, arm errors). These describe
	// the plan; MetricBatchTrialsPacked still counts what executed.
	MetricSchedPacked = "campaign.sched.packed_trials"
	MetricSchedSolo   = "campaign.sched.solo_trials"
	MetricSchedSeq    = "campaign.sched.seq_trials"
	// MetricStopTrial is the trial index the sequential stopping rule
	// fired on (-1 when the rule never fired; recorded only when
	// Config.Stop is set). Like the Aggregate it is deterministic in
	// (Seed, Trials): the rule folds the record stream in strict trial
	// order, so the stop index never depends on Workers or scheduling.
	MetricStopTrial = "campaign.stop.trial"
	// MetricStopSaved counts the planned trials the early stop made
	// unnecessary (Trials - stop_index - 1).
	MetricStopSaved = "campaign.stop.trials_saved"
	// MetricCIWidth is the final confidence-interval half-width reported
	// by the stopping watcher.
	MetricCIWidth = "campaign.stop.ci_width"
	// MetricDedupSaved counts trials answered from a fault-space
	// duplicate's canonical computation instead of their own forward.
	MetricDedupSaved = "campaign.dedup.trials_saved"
	// MetricDedupKeys is the number of distinct fault-space keys the
	// dedup pre-pass saw (keyable trials only).
	MetricDedupKeys = "campaign.dedup.unique_keys"
	// MetricStrataCount / MetricStrataMinTrials describe a stratified
	// stopping watcher: the stratum count and the smallest per-stratum
	// observation count at the end of the run (the campaign's coverage
	// floor across the fault space).
	MetricStrataCount     = "campaign.strata.count"
	MetricStrataMinTrials = "campaign.strata.min_trials"
)

// Outcome classifies a single injection trial, using the corruption
// criteria discussed in §IV-A.
type Outcome struct {
	// Top1Changed: the injected inference's Top-1 differs from the clean
	// Top-1 — the paper's primary "output corruption" definition.
	Top1Changed bool `json:"top1_changed"`
	// Top1OutOfTop5: the clean Top-1 fell out of the injected Top-5, a
	// coarser corruption criterion.
	Top1OutOfTop5 bool `json:"top1_out_of_top5"`
	// ConfidenceDrop: clean Top-1 probability minus its probability under
	// injection (positive = the fault eroded confidence).
	ConfidenceDrop float64 `json:"confidence_drop"`
	// NonFinite: the injected logits contain NaN or Inf.
	NonFinite bool `json:"non_finite"`
}

// Aggregate accumulates outcomes.
type Aggregate struct {
	Trials      int
	Top1Mis     int
	OutOfTop5   int
	NonFinite   int
	ConfDropSum float64
	BigConfDrop int // trials with ConfidenceDrop > 0.2
	// Skipped counts trials voided by a per-trial error under the
	// SkipAndCount policy; they are excluded from Trials and every rate.
	Skipped int
}

// Add folds one outcome into the aggregate.
func (a *Aggregate) Add(o Outcome) {
	a.Trials++
	if o.Top1Changed {
		a.Top1Mis++
	}
	if o.Top1OutOfTop5 {
		a.OutOfTop5++
	}
	if o.NonFinite {
		a.NonFinite++
	}
	a.ConfDropSum += o.ConfidenceDrop
	if o.ConfidenceDrop > 0.2 {
		a.BigConfDrop++
	}
}

// AddRecord folds one finished trial's record into the aggregate,
// mirroring the engine's own fold: a record carrying an error counts as
// Skipped, anything else contributes its Outcome. Folding a campaign's
// records in strict trial-index order therefore reproduces the engine's
// Aggregate bit-for-bit (the float summation order is identical) — this
// is the merge contract sharded execution builds on: a coordinator that
// folds shard record streams in global index order is byte-identical to
// a single-machine run, for any shard partition.
func (a *Aggregate) AddRecord(rec TrialRecord) {
	if rec.Err != "" {
		a.Skipped++
		return
	}
	a.Add(rec.Outcome)
}

// Merge folds another aggregate into a.
func (a *Aggregate) Merge(b Aggregate) {
	a.Trials += b.Trials
	a.Top1Mis += b.Top1Mis
	a.OutOfTop5 += b.OutOfTop5
	a.NonFinite += b.NonFinite
	a.ConfDropSum += b.ConfDropSum
	a.BigConfDrop += b.BigConfDrop
	a.Skipped += b.Skipped
}

// Rate returns the Top-1 misclassification probability.
func (a Aggregate) Rate() float64 {
	if a.Trials == 0 {
		return 0
	}
	return float64(a.Top1Mis) / float64(a.Trials)
}

// Z99 is the two-sided 99% normal quantile used by the paper's error
// bars.
const Z99 = 2.5758293035489004

// WilsonCI returns the Wilson score interval for the Top-1
// misclassification rate at normal quantile z.
func (a Aggregate) WilsonCI(z float64) (lo, hi float64) {
	return wilson(a.Top1Mis, a.Trials, z)
}

func wilson(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// SampleSource yields single samples by index (satisfied by
// data.Classification).
type SampleSource interface {
	Sample(i int) (*tensor.Tensor, int)
}

// ErrorPolicy decides what a per-trial failure (an Arm error or a panic
// inside the trial) does to the rest of the campaign.
type ErrorPolicy int

const (
	// FailFast aborts the whole campaign on the first trial error,
	// returning the partial aggregate alongside the error. The default.
	FailFast ErrorPolicy = iota
	// SkipAndCount voids the failing trial, counts it in
	// Aggregate.Skipped, and lets the campaign finish — one bad arm does
	// not discard a million-trial run.
	SkipAndCount
)

// Config drives Run.
type Config struct {
	// Workers is the number of parallel trial runners (default 1). The
	// worker count affects throughput only, never results: trials are
	// scheduled by work stealing and every trial's randomness derives
	// from (Seed, trial index) alone.
	Workers int
	// Trials is the total number of injection trials.
	Trials int
	// Offset shifts the campaign's global trial indices: the engine
	// executes trials [Offset, Offset+Trials) of the (Seed, ·) trial
	// space. Trial t's randomness derives from its GLOBAL index, so a
	// shard running [lo, hi) computes bit-for-bit the outcomes a
	// single-machine run of [0, N) computes for those indices — this is
	// the sharding contract behind gofi-serve: split a campaign into
	// contiguous ranges (SplitTrials), run each range anywhere, and fold
	// the records back together in global index order (AddRecord). Trial
	// records, watcher observations and the stop-trial metric all carry
	// global indices. Dedup (Key) canonicalizes within the shard's own
	// range only; sharded campaigns that need global dedup must dedup at
	// the coordinator. The default 0 is the whole-campaign case.
	Offset int
	// Seed is the campaign's single source of randomness; with Trials it
	// fully determines the Aggregate.
	Seed int64
	// NewReplica builds worker w's private injector (and instrumented
	// model). Replicas must share trained weights but nothing else.
	NewReplica func(worker int) (*core.Injector, error)
	// Source provides input samples.
	Source SampleSource
	// Eligible lists the sample indices trials may draw from (typically
	// the correctly-classified subset, as in §IV-A).
	Eligible []int
	// ArmTrial arms this trial's fault(s) on a freshly Reset injector. The
	// rng is the trial's private stream; trial is its global index — the
	// hook stratified generators need, since a trial's stratum is a
	// function of its index (stats.Strata.Assign), not of its RNG stream.
	ArmTrial func(inj *core.Injector, rng *rand.Rand, trial int) error
	// Stop, when non-nil, attaches a sequential early-stopping watcher
	// (stats.NewSequential or stats.NewStratified): the engine folds
	// every finished trial's SDC verdict (Outcome.Top1Changed) into the
	// watcher in strict trial-index order — buffering out-of-order
	// completions on a contiguous frontier — and halts the campaign at
	// the first trial whose fold satisfies the rule. The stop index is
	// therefore a pure function of (Seed, Trials), independent of
	// Workers, Schedule, TrialBatch and PrefixReuse, and the returned
	// Aggregate folds exactly trials [0, stop]. Run returns a nil error
	// on an early stop. With Stop set, sinks also receive their records
	// in trial-index order (byte-identical streams across schedules)
	// rather than completion order.
	Stop stats.Watcher
	// Key, when non-nil, enables fault-space dedup: before execution the
	// engine replays every trial's fault-deciding draws through Key (the
	// rng is positioned after the sample draw) and trials sharing a key
	// with an earlier one are never executed — their records, aggregate
	// contributions and stopping-rule observations are filled from the
	// canonical (lowest-index) trial's outcome, preserving multiplicity.
	// Sound only when equal keys imply bit-identical outcomes, which is
	// the generator's contract (stats.Gen.Key); trials Key declines
	// (ok == false) always execute themselves.
	Key func(rng *rand.Rand, trial, sample int) (key string, ok bool)
	// Sinks receive one TrialRecord per finished trial, in completion
	// order, from a single collector goroutine (sinks need no locking).
	Sinks []TrialSink
	// Progress, if non-nil, receives periodic throughput snapshots from
	// the collector goroutine.
	Progress func(Progress)
	// ProgressEvery is the record interval between Progress calls
	// (default Trials/100, at least 1).
	ProgressEvery int
	// OnError selects the per-trial failure policy (default FailFast).
	OnError ErrorPolicy
	// PrefixReuse resumes each trial's forward pass from a checkpointed
	// clean-prefix activation instead of recomputing the layers below the
	// earliest fault site (Gräfe et al.'s checkpoint-and-resume
	// optimization). Results are byte-identical with reuse on or off —
	// the checkpoint is a bitwise copy of what the full pass would feed
	// the suffix — so this is a throughput knob only. Neuron and weight
	// faults resume alike (a weight fault cuts at the earliest layer that
	// reads the mutated weight). Trials with no clean prefix (that layer
	// in the model's first chain node) run the full forward, as do
	// weight-armed trials on replicas that share weight storage with
	// another worker, and models whose structure defeats chain planning.
	// The checkpoints, and the clean predictions whose walks warm them,
	// live in Clean when one is handed over, else in a cache private to
	// the Run. With reuse off nothing outlives the Run or is shared with
	// another: this is the reference configuration.
	PrefixReuse bool
	// Clean, when non-nil, is the fixture's clean pass (see CleanCache):
	// under PrefixReuse the Run computes only the drawn samples the cache
	// lacks, resumes trials from its checkpoint store and calibrates the
	// scheduler from its carried node costs. Every Run sharing one cache
	// must build replicas of one model over one Source. Ignored with
	// PrefixReuse off.
	Clean *CleanCache
	// TrialBatch packs up to this many compatible trials (same sample,
	// lane-safe neuron faults only) into one forward pass over an input
	// tiled across that many batch lanes — the batched counterpart of
	// PyTorchFI's per-batch-element fault sites. 0 or 1 runs every trial
	// alone (width-1 entries, no probe pass, no plan). The effective
	// width is clamped to the replicas' profiled batch
	// (core.Config.Batch), since a lane must be a legal batch element of
	// the profiled geometry. Like PrefixReuse
	// this is a throughput knob only: per-trial RNG streams and per-lane
	// arming keep every trial's logits bit-identical to running it alone,
	// so the Aggregate is byte-identical for any (Workers, TrialBatch).
	// Trials that cannot be lane-packed (weight faults, explicit
	// multi-batch sites, arm errors) run as width-1 entries automatically
	// and are counted in MetricBatchSeqFallbacks.
	TrialBatch int
	// Schedule selects how the TrialBatch lanes are actually used. The
	// zero value, ScheduleAuto, calibrates a per-chain-node cost table
	// from the clean pass's timed walks and packs a trial
	// group only when the model prices the pack below running its
	// trials alone — under PrefixReuse that usually means NOT packing,
	// since each trial alone resumes from a warmed checkpoint at its own
	// cut while a pack must resume at its shallowest member's.
	// SchedulePack forces the unconditional chunking; ScheduleSeq ignores
	// TrialBatch entirely. Like TrialBatch this is a throughput knob
	// only: the Aggregate is byte-identical under every Schedule.
	Schedule Schedule
	// Metrics, when non-nil, receives the engine's counters, trial
	// latency histogram and sink gauges (see the Metric* constants), and
	// is attached to every replica injector for perturbation accounting.
	// Nil keeps the hot path free of instrumentation.
	Metrics *obs.Registry
}

func (c Config) validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("campaign: negative worker count %d", c.Workers)
	}
	if c.Trials <= 0 {
		return fmt.Errorf("campaign: trials must be positive, got %d", c.Trials)
	}
	if c.Offset < 0 {
		return fmt.Errorf("campaign: negative trial offset %d", c.Offset)
	}
	if c.NewReplica == nil || c.Source == nil || c.ArmTrial == nil {
		return fmt.Errorf("campaign: NewReplica, Source and ArmTrial are required")
	}
	if len(c.Eligible) == 0 {
		return fmt.Errorf("campaign: no eligible samples (did the model classify nothing correctly?)")
	}
	if c.TrialBatch < 0 {
		return fmt.Errorf("campaign: negative trial batch %d", c.TrialBatch)
	}
	return nil
}

// draw re-derives local trial t's private stream, positioned after its
// first draw — the sample choice — and returns it with the chosen
// sample. Streams derive from the trial's GLOBAL index so shards see the
// choices a whole-campaign run sees. Everything that looks at a trial
// (clean pre-pass, dedup replay, probe, executor) starts here, so the
// draw order cannot drift between them.
func (c Config) draw(t int) (rng *rand.Rand, sample int) {
	rng = TrialStream(c.Seed, c.Offset+t)
	return rng, c.Eligible[rng.Intn(len(c.Eligible))]
}

// input returns sample idx as a batch-1 model input.
func (c Config) input(idx int) *tensor.Tensor {
	img, _ := c.Source.Sample(idx)
	shape := img.Shape()
	return img.Reshape(1, shape[0], shape[1], shape[2])
}

// strataInfo is the optional interface a stratified stopping watcher
// exposes; the engine exports it as gauges when present.
type strataInfo interface {
	NumStrata() int
	MinStratumTrials() int
}

type cleanPrediction struct {
	top1 int
	top5 []int
	conf float64
	// outcome classifies the clean logits themselves: the outcome of a
	// trial whose fault is masked before the output.
	outcome Outcome
}

func classify(logits *tensor.Tensor, cp cleanPrediction) Outcome {
	var o Outcome
	o.NonFinite = logits.CountNonFinite() > 0
	top1 := tensor.ArgMaxRows(logits)[0]
	o.Top1Changed = top1 != cp.top1
	o.Top1OutOfTop5 = true
	for _, c := range tensor.TopK(logits, 5)[0] {
		if c == cp.top1 {
			o.Top1OutOfTop5 = false
			break
		}
	}
	if !o.NonFinite {
		probs := tensor.SoftmaxRows(logits)
		o.ConfidenceDrop = cp.conf - float64(probs.At(0, cp.top1))
	}
	return o
}
