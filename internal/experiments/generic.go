package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/scenario"
)

// ArmFunc arms one trial's fault(s) on a freshly Reset injector.
type ArmFunc func(inj *core.Injector, rng *rand.Rand) error

// GenericCampaignConfig drives RunGenericCampaign, the configurable
// campaign behind cmd/gofi-campaign.
type GenericCampaignConfig struct {
	Model           string
	Classes, InSize int
	TrainEpochs     int
	Noise           float32
	Trials          int
	Workers         int
	DType           core.DType
	// Backend selects the tensor execution path: "f32" (default) runs
	// float32 kernels with emulated reduced precision; "int8" quantizes
	// the trained model (nn.QuantizeModel) and runs the whole campaign on
	// the int8 GEMM/conv backend — stored-code fault semantics, and
	// typically well above the float32 path's trial throughput. Implies
	// DType INT8.
	Backend string
	// ActZeroPoint lets int8-backend calibration use asymmetric
	// (zero-point) input quantizers for non-negative activations.
	ActZeroPoint bool
	Arm          ArmFunc
	// IsolateWeights deep-copies the trained weights into every worker
	// replica instead of sharing storage. Required for campaigns whose
	// trials perturb weights (offline mutation would otherwise race
	// across workers).
	IsolateWeights bool
	Seed           int64
	// Sinks receive one campaign.TrialRecord per trial (completion
	// order); see campaign.Config.Sinks.
	Sinks []campaign.TrialSink
	// Progress, if non-nil, receives periodic throughput snapshots.
	Progress func(campaign.Progress)
	// OnError selects the engine's per-trial failure policy.
	OnError campaign.ErrorPolicy
	// Metrics, when non-nil, receives the engine's counters, trial
	// latency histogram and sink gauges (see campaign.Metric*).
	Metrics *obs.Registry
	// PrefixReuse, TrialBatch and Schedule are the engine's in-process
	// execution settings (see the campaign.Config fields of the same
	// names): results are byte-identical under every combination, no
	// CLI, wire or scenario surface sets them, and tests and the
	// benchmark use them to reach the reference configuration and the
	// multi-lane path. Every user-facing caller runs reuse on, the
	// zero-value ScheduleAuto and TrialBatch 0, which picks 8 lanes, or
	// 1 (off) for weight campaigns, whose trials are never lane-safe.
	PrefixReuse bool
	TrialBatch  int
	Schedule    campaign.Schedule
	// Stop, when on, attaches a sequential early-stopping rule: the
	// campaign halts once the SDC-rate confidence interval is as tight as
	// the rule asks, and Trials then caps the budget instead of fixing
	// it. The stop index is deterministic in (Seed, Trials) — see
	// campaign.Config.Stop. The zero value runs the whole budget.
	Stop stats.StopRule
	// Stratify replaces Arm with a stratified fixed-bit-flip generator
	// over (layer, bit-position) strata: trials are allocated to strata
	// round-robin by index and per-stratum estimates merge by
	// fault-space weight (stats.NewBitFlipStratified). Requires neuron
	// scope — the caller must leave Arm nil and IsolateWeights false.
	Stratify bool
	// Dedup enables fault-space dedup: trials arming an identical
	// (sample, site, bit) fault are computed once and multiplied in the
	// aggregate. Requires ErrorModel (the generator must own the fault
	// draws); implies routing single-neuron arming through the
	// stats.Uniform generator, which mirrors Arm's legacy draw order
	// exactly.
	Dedup bool
	// ErrorModel is the error model the Stratify/Dedup generators arm;
	// ignored when both are false (Arm then owns fault declaration).
	ErrorModel core.ErrorModel
	// Scenario, when non-nil, is a declarative scenario
	// (internal/scenario) that owns the campaign's fault shape:
	// PrepareGenericCampaign derives Model/Classes/InSize/TrainEpochs/
	// Noise/Backend/DType/ActZeroPoint/IsolateWeights from it
	// (overwriting those fields), compiles it against the profiled
	// layer geometry and arms trials through the compiled selector.
	// Mutually exclusive with Arm, Stratify, Dedup and ErrorModel. The
	// run knobs (Trials, Workers, Seed, Stop, OnError) stay the caller's:
	// serve.Spec.Config resolves them against the scenario's run block.
	Scenario *scenario.Scenario
}

// StopSummary reports what an early-stopping watcher saw, for CLIs to
// render next to the aggregate.
type StopSummary struct {
	// Trial is the index the rule fired on, -1 when the campaign
	// exhausted its budget first.
	Trial int
	// Budget is the trial budget the rule was capping and Confidence the
	// level of the Lo/Hi interval, both as resolved for this run (scenario
	// run block, flags and defaults already applied).
	Budget     int
	Confidence float64
	// Rate, Lo, Hi are the watcher's final estimate and CI bounds.
	Rate, Lo, Hi float64
	// Strata and MinStratum describe a stratified watcher (0/0 when the
	// plain sequential rule ran).
	Strata, MinStratum int
}

// defaultTrialBatch is the lane count the generic campaigns profile for
// (and default to) when the caller asks for automatic trial batching.
const defaultTrialBatch = 8

// GenericCampaignResult bundles the campaign aggregate with the trained
// model's quality.
type GenericCampaignResult struct {
	CleanAcc      float64
	EligibleCount int
	Aggregate     campaign.Aggregate
	// Stop is non-nil when a stop rule was configured.
	Stop *StopSummary
	// Observers is the scenario's per-layer observer report, non-nil
	// when a scenario with observers drove the campaign.
	Observers *scenario.Report
}

// CampaignEnv is a prepared campaign: the trained model fixture wrapped
// in a replica factory, the sample source and eligible indices, the
// canonicalized config, and the generator/watcher wiring. Preparation
// (training, calibration, generator profiling) happens once; the
// environment then runs any number of engine legs over any contiguous
// trial-index range via Run — the mechanism gofi-serve uses to shard one
// campaign across a worker pool and to resume it from a checkpoint.
// Environments are safe for concurrent Run calls: replicas are built per
// worker and the trained weights are read-only during neuron campaigns
// (IsolateWeights deep-copies them per replica otherwise).
//
// The environment also owns the fixture's clean pass (campaign.CleanCache):
// every Run with Cfg.PrefixReuse on — legs, shards and concurrent
// campaigns alike — computes only the samples no earlier Run drew and
// resumes from one checkpoint store, budgeted at campaign.StoreBudget of
// the canonical Cfg.Workers and dropped with the environment. Value
// copies share it by pointer; a copy that turns PrefixReuse off (the
// reference configuration) does not use it.
type CampaignEnv struct {
	// Cfg is the canonicalized configuration (defaults filled, backend
	// and dtype resolved, TrialBatch pinned).
	Cfg GenericCampaignConfig
	// Source and Eligible are the evaluation samples and the trained
	// model's correctly-classified indices among them.
	Source   *data.Classification
	Eligible []int
	// NewReplica builds worker replicas (campaign.Config.NewReplica).
	NewReplica func(int) (*core.Injector, error)
	// CleanAcc is the trained model's held-out accuracy.
	CleanAcc float64
	// CampaignSeed is the engine seed (derived from Cfg.Seed); every
	// trial's randomness is a pure function of (CampaignSeed, global
	// trial index), which is what makes shard ranges composable.
	CampaignSeed int64

	// Compiled is the compiled scenario when Cfg.Scenario drives the
	// campaign (nil for Arm- or generator-driven campaigns); observers
	// and reports hang off it.
	Compiled *scenario.Compiled

	armTrial func(*core.Injector, *rand.Rand, int) error
	key      func(*rand.Rand, int, int) (string, bool)
	strata   *stats.Strata
	clean    *campaign.CleanCache
}

// ShardRun describes one engine leg over the contiguous global
// trial-index range [Offset, Offset+Trials) of a prepared campaign.
type ShardRun struct {
	// Offset is the leg's first global trial index; Trials its length.
	Offset, Trials int
	// Workers overrides the environment's worker count when positive.
	Workers int
	// Watcher, when non-nil, is the engine-side stopping fold. Leave nil
	// for sharded runs — a watcher only sees its own leg's indices, so a
	// cross-shard coordinator must fold the merged stream itself.
	Watcher stats.Watcher
	// Sinks, Progress and Metrics are per-leg observability taps (see
	// the campaign.Config fields of the same names).
	Sinks    []campaign.TrialSink
	Progress func(campaign.Progress)
	Metrics  *obs.Registry
}

// Run executes one engine leg. Results are deterministic in
// (CampaignSeed, Offset, Trials): re-running a range, on any worker
// count, reproduces its records bit-for-bit.
func (env *CampaignEnv) Run(ctx context.Context, sr ShardRun) (campaign.Aggregate, error) {
	workers := sr.Workers
	if workers <= 0 {
		workers = env.Cfg.Workers
	}
	armTrial := env.armTrial
	if armTrial == nil {
		armTrial = func(inj *core.Injector, rng *rand.Rand, _ int) error { return env.Cfg.Arm(inj, rng) }
	}
	return campaign.Run(ctx, campaign.Config{
		Workers:     workers,
		Trials:      sr.Trials,
		Offset:      sr.Offset,
		Seed:        env.CampaignSeed,
		NewReplica:  env.NewReplica,
		Source:      env.Source,
		Eligible:    env.Eligible,
		ArmTrial:    armTrial,
		Stop:        sr.Watcher,
		Key:         env.key,
		Sinks:       sr.Sinks,
		Progress:    sr.Progress,
		OnError:     env.Cfg.OnError,
		Metrics:     sr.Metrics,
		PrefixReuse: env.Cfg.PrefixReuse,
		Clean:       env.clean,
		TrialBatch:  env.Cfg.TrialBatch,
		Schedule:    env.Cfg.Schedule,
	})
}

// NewWatcher builds the environment's stopping watcher, or nil when no
// rule is configured. Each call returns a fresh fold.
func (env *CampaignEnv) NewWatcher() stats.Watcher {
	if !env.Cfg.Stop.On() {
		return nil
	}
	if env.strata != nil {
		return stats.NewStratified(env.Cfg.Stop, env.strata)
	}
	return stats.NewSequential(env.Cfg.Stop)
}

// runLeg runs one whole-budget engine leg of the prepared fixture under
// its own engine seed — the unit the per-model, per-bit and per-layer
// studies loop over. A non-nil arm replaces the environment's arming for
// this leg. It returns the aggregate and the index a configured stop
// rule fired on (-1 when none did).
func (env *CampaignEnv) runLeg(ctx context.Context, seed int64, arm ArmFunc) (campaign.Aggregate, int, error) {
	leg := *env
	leg.CampaignSeed = seed
	if arm != nil {
		leg.Cfg.Arm = arm
	}
	watcher := leg.NewWatcher()
	agg, err := leg.Run(ctx, ShardRun{Trials: leg.Cfg.Trials, Watcher: watcher, Metrics: leg.Cfg.Metrics})
	stopTrial := -1
	if watcher != nil {
		stopTrial = summarizeStop(watcher).Trial
	}
	return agg, stopTrial, err
}

// LegStat is one engine leg's Top-1 misclassification count with its
// Wilson 99% interval: what a study that compares models reports per
// model.
type LegStat struct {
	Trials, Mis      int
	Rate, CILo, CIHi float64
}

func legStat(agg campaign.Aggregate) LegStat {
	lo, hi := agg.WilsonCI(campaign.Z99)
	return LegStat{Trials: agg.Trials, Mis: agg.Top1Mis, Rate: agg.Rate(), CILo: lo, CIHi: hi}
}

// String renders the statistic as "mis/trials (rate% [lo, hi])", the
// interval in percent.
func (s LegStat) String() string {
	return fmt.Sprintf("%d/%d (%.3f%% [%.3f, %.3f])", s.Mis, s.Trials, 100*s.Rate, 100*s.CILo, 100*s.CIHi)
}

// fixtureLeg is the study path for a model the study trained itself: it
// prepares an FP32 neuron campaign (cfg carries InSize, Trials, Seed, Arm
// and Metrics) on the pre-built fixture at the engine's default execution
// settings, runs one whole-budget leg on legSeed and returns the leg's
// statistic and the fixture's clean accuracy.
func fixtureLeg(ctx context.Context, fx Fixture, cfg GenericCampaignConfig, legSeed int64) (LegStat, float64, error) {
	cfg.PrefixReuse = true
	cfg, err := cfg.canon()
	if err != nil {
		return LegStat{}, 0, err
	}
	env, err := prepareOnFixture(cfg, fx)
	if err != nil {
		return LegStat{}, 0, err
	}
	agg, _, err := env.runLeg(ctx, legSeed, nil)
	return legStat(agg), env.CleanAcc, err
}

// RunGenericCampaign trains the model on the synthetic dataset, prepares
// per-worker injector replicas at the requested emulated data type (with
// INT8 calibration / FP16 rounding when applicable), and runs the
// campaign. Cancelling ctx mid-campaign returns the partial result
// alongside ctx's error.
func RunGenericCampaign(ctx context.Context, cfg GenericCampaignConfig) (GenericCampaignResult, error) {
	env, err := PrepareGenericCampaign(ctx, cfg)
	if err != nil {
		return GenericCampaignResult{}, err
	}
	watcher := env.NewWatcher()
	observers, err := env.ScenarioObservers()
	if err != nil {
		return GenericCampaignResult{}, err
	}
	sinks := env.Cfg.Sinks
	if observers != nil {
		sinks = append(append([]campaign.TrialSink(nil), sinks...), observers)
	}
	agg, err := env.Run(ctx, ShardRun{
		Offset:   0,
		Trials:   env.Cfg.Trials,
		Watcher:  watcher,
		Sinks:    sinks,
		Progress: env.Cfg.Progress,
		Metrics:  env.Cfg.Metrics,
	})
	// On abort the engine still hands back the partial aggregate; pass it
	// through so callers can report what completed.
	res := GenericCampaignResult{
		CleanAcc:      env.CleanAcc,
		EligibleCount: len(env.Eligible),
		Aggregate:     agg,
	}
	if watcher != nil {
		res.Stop = summarizeStop(watcher)
		res.Stop.Budget = env.Cfg.Trials
	}
	if observers != nil {
		rep := observers.Report()
		res.Observers = &rep
	}
	return res, err
}

// PrepareGenericCampaign validates and canonicalizes cfg, trains the
// model fixture it names and prepares the campaign on it, returning an
// environment ready to run engine legs. It performs no trials itself.
func PrepareGenericCampaign(ctx context.Context, cfg GenericCampaignConfig) (*CampaignEnv, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := cfg.canon()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fx, err := trainedModel(cfg.Model, cfg.Classes, cfg.InSize, cfg.Noise, cfg.Seed, cfg.TrainEpochs)
	if err != nil {
		return nil, err
	}
	return prepareOnFixture(cfg, fx)
}

// canon validates cfg and returns it with defaults filled, a scenario's
// fixture and fault fields derived, and backend and dtype resolved —
// everything that can be rejected before a fixture is trained.
func (cfg GenericCampaignConfig) canon() (GenericCampaignConfig, error) {
	useGen := cfg.Stratify || cfg.Dedup
	if !useGen && cfg.Arm == nil && cfg.Scenario == nil {
		return cfg, fmt.Errorf("campaign: Arm function required")
	}
	if cfg.Scenario != nil {
		if cfg.Arm != nil {
			return cfg, fmt.Errorf("campaign: a scenario owns fault declaration; leave Arm nil")
		}
		if useGen {
			return cfg, fmt.Errorf("campaign: scenarios do not compose with Stratify/Dedup (the observers replay trial draws, which dedup's canonical-outcome fills would break)")
		}
		if cfg.ErrorModel != nil {
			return cfg, fmt.Errorf("campaign: the scenario declares its error models; leave ErrorModel nil")
		}
		// The scenario owns the fault shape; derive the fixture and
		// backend fields from it so they cannot drift apart.
		s := cfg.Scenario.Canon()
		if err := s.Validate(); err != nil {
			return cfg, err
		}
		cfg.Scenario = &s
		cfg.Model, cfg.Classes, cfg.InSize = s.Model.Arch, s.Model.Classes, s.Model.InSize
		cfg.TrainEpochs, cfg.Noise = s.Model.Epochs, float32(*s.Model.Noise)
		cfg.Backend, cfg.DType = s.Fault.Backend, s.CoreDType()
		cfg.ActZeroPoint = s.Fault.ActZeroPoint
		cfg.IsolateWeights = s.Fault.Scope == "weight"
	}
	if useGen {
		if cfg.Arm != nil {
			return cfg, fmt.Errorf("campaign: Stratify/Dedup own fault declaration; leave Arm nil")
		}
		if cfg.IsolateWeights {
			return cfg, fmt.Errorf("campaign: Stratify/Dedup cover neuron faults only, not weight campaigns")
		}
		if !cfg.Stratify && cfg.ErrorModel == nil {
			return cfg, fmt.Errorf("campaign: Dedup needs ErrorModel so the generator owns the fault draws")
		}
	}
	if cfg.Model == "" {
		cfg.Model = "resnet18"
	}
	if cfg.Classes <= 0 {
		cfg.Classes = 10
	}
	if cfg.InSize <= 0 {
		cfg.InSize = 32
	}
	if cfg.TrainEpochs <= 0 {
		cfg.TrainEpochs = 8
	}
	if cfg.Noise == 0 {
		cfg.Noise = 0.6
	}
	if cfg.Trials <= 0 && !(cfg.Scenario != nil && cfg.Scenario.Selector.Kind == scenario.SelSweep) {
		// A sweep scenario's budget defaults to its enumeration size,
		// known only once prepareOnFixture has profiled the layer geometry.
		cfg.Trials = 1000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	var err error
	if cfg.Backend, err = ParseBackend(cfg.Backend); err != nil {
		return cfg, err
	}
	if cfg.Backend == "int8" {
		if cfg.DType != 0 && cfg.DType != core.INT8 {
			return cfg, fmt.Errorf("campaign: int8 backend implies -dtype int8, got %s", cfg.DType)
		}
		cfg.DType = core.INT8
	}
	if cfg.DType == 0 {
		cfg.DType = core.FP32
	}

	return cfg, cfg.Stop.Validate()
}

// prepareOnFixture prepares a canonical cfg (GenericCampaignConfig.canon)
// on a trained fixture: it builds the replica factory for the resolved
// backend and dtype, wires the scenario or the Stratify/Dedup generators,
// and gives the environment its clean cache and engine seed. Every study
// reaches the engine through it — PrepareGenericCampaign with a fixture
// it trained by name, Fig. 6 and Table I with one they trained
// themselves.
func prepareOnFixture(cfg GenericCampaignConfig, fx Fixture) (*CampaignEnv, error) {
	if len(fx.Eligible) == 0 {
		return nil, fmt.Errorf("campaign: model classifies nothing correctly after training")
	}
	if cfg.TrialBatch == 0 {
		cfg.TrialBatch = defaultTrialBatch
		if cfg.IsolateWeights {
			// Weight trials are never lane-safe, so lanes would only add
			// a useless probe pass.
			cfg.TrialBatch = 1
		}
	}
	injCfg := core.Config{
		Batch: cfg.TrialBatch, Height: cfg.InSize, Width: cfg.InSize, DType: cfg.DType, Seed: cfg.Seed,
	}
	calib, _ := fx.Source.Batch(0, 8)
	var quant *nn.QuantizeOptions
	if cfg.Backend == "int8" {
		quant = &nn.QuantizeOptions{ActZeroPoint: cfg.ActZeroPoint}
	}
	newReplica, err := replicaFactory(fx, calib, quant, injCfg, cfg.IsolateWeights)
	if err != nil {
		return nil, err
	}

	// Scenario and generator wiring. Both need the profiled layer
	// geometry, which only exists on a built replica, so probe one (the
	// engine builds its own per worker; this one is discarded).
	var armTrial func(*core.Injector, *rand.Rand, int) error
	var key func(*rand.Rand, int, int) (string, bool)
	var strata *stats.Strata
	var compiled *scenario.Compiled
	if cfg.Scenario != nil || cfg.Stratify || cfg.Dedup {
		probe, err := newReplica(0)
		if err != nil {
			return nil, err
		}
		layers := probe.Layers()
		probe.Detach()
		switch {
		case cfg.Scenario != nil:
			compiled, err = scenario.Compile(*cfg.Scenario, layers)
			if err != nil {
				return nil, err
			}
			armTrial = compiled.ArmTrial
			if cfg.Trials <= 0 {
				cfg.Trials = compiled.Trials()
				if cfg.Trials <= 0 {
					return nil, fmt.Errorf("campaign: scenario declares no trial budget")
				}
			}
		case cfg.Stratify:
			g, err := stats.NewBitFlipStratified(layers, cfg.DType)
			if err != nil {
				return nil, err
			}
			strata = g.Strata()
			armTrial = g.Arm
			if cfg.Dedup {
				key = g.Key
			}
		default:
			g, err := stats.NewUniform(layers, cfg.ErrorModel, cfg.DType)
			if err != nil {
				return nil, err
			}
			armTrial, key = g.Arm, g.Key
		}
	}

	return &CampaignEnv{
		Cfg:          cfg,
		Source:       fx.Source,
		Eligible:     fx.Eligible,
		NewReplica:   newReplica,
		CleanAcc:     float64(len(fx.Eligible)) / float64(fx.HeldOut),
		CampaignSeed: cfg.Seed + 101,
		Compiled:     compiled,
		armTrial:     armTrial,
		key:          key,
		strata:       strata,
		clean:        campaign.NewCleanCache(campaign.StoreBudget(cfg.Workers)),
	}, nil
}

// summarizeStop extracts a CLI-facing summary from a stopping watcher.
func summarizeStop(w stats.Watcher) *StopSummary {
	s := &StopSummary{Trial: -1}
	s.Rate, s.Lo, s.Hi = w.Interval()
	if st, ok := w.(interface {
		StopTrial() int
		Rule() stats.StopRule
	}); ok {
		s.Trial = st.StopTrial()
		s.Confidence = st.Rule().Confidence
	}
	if si, ok := w.(interface {
		NumStrata() int
		MinStratumTrials() int
	}); ok {
		s.Strata = si.NumStrata()
		s.MinStratum = si.MinStratumTrials()
	}
	return s
}
