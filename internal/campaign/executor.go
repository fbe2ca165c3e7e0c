package campaign

import (
	"fmt"
	"math/rand"
	"strings"

	"gofi/internal/campaign/sched"
	"gofi/internal/core"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// Trial execution. The planner (internal/campaign/sched, or the trivial
// one-entry-per-trial list when lanes cannot be used) emits entries; the
// executor runs an entry as ONE forward pass: every member is armed from
// its private stream, the clean boundary at the deepest cut sound for
// every armed site is computed (or fetched from the checkpoint store) at
// batch 1, tiled across the entry's lanes, and the suffix runs once for
// all of them. An entry of width 1 is the sequential trial: nothing to
// tile, no lane to confine the declaration to, so lane-unsafe faults
// (weight faults, explicit multi-batch sites) arm and run there — and
// resume from the same checkpoints: a weight fault's cut is the chain
// node of the earliest layer that reads the mutated weight.
//
// Two trials may share an entry when they share the input sample and
// carry only lane-safe faults (neuron faults on AllBatches/element-0
// sites; see core.ErrLaneUnsafe). Grouping is a scheduling decision only
// — per-trial RNG streams and lane isolation make every trial's outcome
// independent of which entry (and lane) it lands in.
//
// Bit-identity argument, lane by lane: (1) every layer of the substrate
// is per-sample/per-element in eval mode and the GEMM contract (DESIGN
// §10) fixes each output element's reduction chain independent of the
// batch partition, so lane l of a K-lane forward computes bitwise what a
// batch-1 forward of that trial computes; (2) each lane's sites are
// armed from the trial's private RNG stream with perturb-time draws
// bound to that stream (core.BeginLane), so stochastic error models draw
// the same values they would draw alone; (3) the tiled boundary is a
// bitwise copy of the batch-1 clean prefix, which is itself bitwise
// equal to what the full pass would compute (the PrefixRunner contract;
// the differential suite in prefix_test.go asserts it per layer, per
// error model), so a trial's Outcome never depends on PrefixReuse. The
// cross-lane isolation test wall in batch_test.go pins all three.

// worker is one trial runner: a private replica and the prefix machinery
// resolved for it.
type worker struct {
	id  int
	inj *core.Injector
	// runner resumes this replica's forwards from the clean cache's
	// checkpoint store; nil when PrefixReuse is off or the model's
	// structure defeats chain planning.
	runner *core.PrefixRunner
	// plan is the chain decomposition forwards cut at (the runner's, or a
	// store-less one so multi-lane entries still share their clean
	// prefix); nil runs every forward full-length.
	plan *core.PrefixPlan
}

// batchMetrics resolves the multi-lane observability handles; nil when no
// registry is attached or lanes are not in use.
type batchMetrics struct {
	packed    *obs.Counter
	fill      *obs.Histogram
	fallbacks *obs.Counter
	planTimer obs.Timer
}

func newBatchMetrics(reg *obs.Registry, k int) *batchMetrics {
	if reg == nil {
		return nil
	}
	reg.Gauge(MetricBatchK).Set(float64(k))
	return &batchMetrics{
		packed:    reg.Counter(MetricBatchTrialsPacked),
		fill:      reg.Histogram(MetricBatchFill),
		fallbacks: reg.Counter(MetricBatchSeqFallbacks),
		planTimer: reg.Timer(MetricBatchPackTime),
	}
}

// executor runs entries on worker replicas.
type executor struct {
	cfg   Config
	clean map[int]cleanPrediction
	bm    *batchMetrics
	// prefixFallbacks counts forwards that found no reusable prefix while
	// a checkpoint store was attached (nil: no registry).
	prefixFallbacks *obs.Counter
	// weightsShared: a weight fault declared on one worker's replica
	// mutates memory another worker's forward reads (replicas built
	// without per-worker weight copies). Observed from the crew, see
	// core.WeightStorageShared.
	weightsShared bool
}

// noLane arms a declaration on the whole injector instead of one batch
// lane.
const noLane = -1

// arm declares global trial g's fault(s) on inj from the trial's private
// stream. With lane >= 0 the declaration is confined to that batch lane
// (core.BeginLane: remapped sites, trial-tagged trace, perturb-time
// draws bound to rng) and lane-unsafe declarations are refused; with
// noLane the injector's own RNG is pointed at the stream instead, so
// stochastic error models draw worker-independent values either way.
// Panics (a buggy ArmTrial) come back as errors so one bad trial cannot
// void a long campaign under SkipAndCount.
func (x *executor) arm(inj *core.Injector, rng *rand.Rand, g, lane int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if lane == noLane {
		inj.SetRand(rng)
	} else {
		if err := inj.BeginLane(lane, g, rng); err != nil {
			return err
		}
		defer inj.EndLane()
	}
	if err := x.cfg.ArmTrial(inj, rng, g); err != nil {
		return fmt.Errorf("arm: %w", err)
	}
	return nil
}

// probe dry-arms local trial t on a worker's replica to discover what
// the planner needs: whether the trial is lane-safe and, if so, its
// clean-prefix cut. Arming is cheap (RNG draws and site validation, no
// inference) and deterministic in the trial stream, so re-arming at
// execution time reproduces the same sites. The injector is left Reset.
// Trials whose probe fails in any way — lane-unsafe declarations, arm
// errors, panics — are simply marked unpackable; a width-1 entry
// reproduces their outcome (or their error) authoritatively.
func (x *executor) probe(w *worker, t int) sched.Trial {
	rng, sample := x.cfg.draw(t)
	spec := sched.Trial{Trial: t, Sample: sample}
	w.inj.Reset()
	if x.arm(w.inj, rng, x.cfg.Offset+t, 0) == nil {
		spec.Packable = true
		if minLayer, ok := w.inj.MinArmedLayer(); ok && w.plan != nil {
			spec.Cut = w.plan.CutFor(minLayer)
		}
	}
	w.inj.Reset()
	return spec
}

// execute runs one entry on a worker's replica and returns one (record,
// error) pair per member, in entry order. A width-1 entry's failure —
// arm error, forward error, a panic anywhere — is that trial's error.
// In a wider entry a member that cannot be lane-armed, and every member
// when the shared forward fails, is handed back to execute as a width-1
// entry: the trial alone is always the authoritative outcome, so a wide
// entry can degrade but never drop, duplicate or alter a trial.
func (x *executor) execute(w *worker, en sched.Entry) ([]TrialRecord, []error) {
	if en.Seq && x.bm != nil {
		x.bm.fallbacks.Inc()
	}
	n := len(en.Trials)
	recs := make([]TrialRecord, n)
	errs := make([]error, n)

	w.inj.Reset()
	lanes := 0
	for i, t := range en.Trials {
		g := x.cfg.Offset + t // global trial index: RNG stream and record identity
		recs[i] = TrialRecord{Trial: g, Worker: w.id, Sample: en.Sample}
		rng, _ := x.cfg.draw(t)
		lane := noLane
		if n > 1 {
			lane = lanes
		}
		if errs[i] = x.arm(w.inj, rng, g, lane); errs[i] != nil {
			if n > 1 {
				// The lane may be partially armed (a multi-declare ArmTrial
				// that failed midway).
				w.inj.ClearLane(lane)
			}
			continue
		}
		lanes++
	}
	if lanes > 0 {
		if err := x.forward(w, en, lanes, recs, errs); err != nil {
			// Fail every armed member rather than guessing which lane is
			// at fault.
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
				}
			}
		} else if n > 1 && x.bm != nil {
			x.bm.packed.Add(int64(lanes))
			x.bm.fill.Observe(int64(lanes))
		}
	}
	for i, err := range errs {
		switch {
		case err == nil:
		case n > 1:
			r, e := x.execute(w, sched.Entry{Trials: en.Trials[i : i+1], Sample: en.Sample, Seq: true})
			recs[i], errs[i] = r[0], e[0]
		default:
			recs[i].Outcome, recs[i].Site, recs[i].Err = Outcome{}, "", err.Error()
		}
	}
	return recs, errs
}

// forward runs the entry's single inference over whatever is armed and
// fills in the armed members' outcomes and sites (the members without an
// error, in order, hold lanes 0..lanes-1). The forward resumes at the
// chain node of the earliest layer a fault reaches — an armed neuron
// site's layer, or the first reader of a mutated weight — from the clean
// boundary below it. With no reusable prefix (no chain plan, that layer
// in the first chain node) the whole model runs on the tiled input. So
// it does for a weight fault on replicas that share weight storage: the
// mutation is then visible to the other workers while it is armed, their
// prefix walks included, so such a trial must neither trust nor write a
// checkpoint. Panics anywhere (geometry bugs in error models) are
// recovered into the returned error.
func (x *executor) forward(w *worker, en sched.Entry, lanes int, recs []TrialRecord, errs []error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	tile := func(t *tensor.Tensor) *tensor.Tensor {
		if lanes == 1 {
			return t
		}
		return t.TileBatch(lanes)
	}
	// The input is materialised only where something reads it: a forward
	// from node 0, or a prefix walk that finds no checkpoint to start from.
	input := func() *tensor.Tensor { return x.cfg.input(en.Sample) }
	cut := 0
	if w.plan != nil && !(x.weightsShared && w.inj.WeightFaultsArmed()) {
		if minLayer, ok := w.inj.MinArmedLayer(); ok {
			cut = w.plan.CutFor(minLayer)
		}
	}
	// A solo neuron-fault trial runs its suffix by region (core.
	// PrefixRunner.ForwardRegion) whenever the runner finds it legal.
	region := lanes == 1 && w.runner != nil && w.runner.RegionLegal()
	if cut == 0 && w.runner != nil && x.prefixFallbacks != nil {
		x.prefixFallbacks.Inc()
	}
	var logits *tensor.Tensor
	masked := false
	switch {
	case cut == 0 && region:
		logits, masked, err = w.runner.ForwardRegion(en.Sample, 0, input())
	case cut == 0:
		logits = nn.Run(w.inj.Model(), tile(input()))
	default:
		var boundary *tensor.Tensor
		if w.runner != nil {
			boundary, err = w.runner.Boundary(en.Sample, cut, input)
		} else {
			// No checkpoint store (PrefixReuse off): compute the clean
			// prefix once per entry. Armed hooks below the cut have no
			// sites to apply, so this walk is clean by the same argument
			// as PrefixRunner.Boundary.
			boundary, err = w.plan.Chain().ForwardTo(cut, input())
		}
		if err != nil {
			return err
		}
		if region {
			logits, masked, err = w.runner.ForwardRegion(en.Sample, cut, boundary)
		} else {
			logits, err = w.plan.Chain().ForwardFrom(cut, tile(boundary))
		}
	}
	if err != nil {
		return err
	}
	cp := x.clean[en.Sample]
	lane := 0
	for i := range recs {
		if errs[i] != nil {
			continue
		}
		if masked {
			// The forward's output is the clean one.
			recs[i].Outcome = cp.outcome
		} else {
			recs[i].Outcome = classify(logits.Lane(lane), cp)
		}
		trace := w.inj.Trace()
		if len(recs) > 1 {
			trace = w.inj.TraceForTrial(recs[i].Trial)
		}
		recs[i].Site = siteString(trace)
		lane++
	}
	return nil
}

// siteString summarizes a trial's applied perturbations from its slice
// of the injection trace (enabled only when sinks are attached).
func siteString(recs []core.InjectionRecord) string {
	if len(recs) == 0 {
		return ""
	}
	parts := make([]string, len(recs))
	for i, r := range recs {
		parts[i] = fmt.Sprintf("%s L%d %s %s", r.Kind, r.Layer, r.Site, r.Model)
	}
	return strings.Join(parts, "; ")
}
