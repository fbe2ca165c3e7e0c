package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/scenario"
)

// Fig4Config drives the classification-resiliency campaign.
type Fig4Config struct {
	// Models restricts the study (nil = the paper's six ImageNet
	// networks).
	Models []string
	// TrialsPerModel is the number of injection trials per network (the
	// paper runs ~18M per network; scale to CPU budget).
	TrialsPerModel int
	// Workers parallelizes each campaign.
	Workers int
	// Classes / InSize describe the synthetic stand-in dataset (defaults
	// 10 / 32).
	Classes, InSize int
	// TrainEpochs controls how long each network trains before the
	// campaign (must reach good accuracy so "correctly classified" is a
	// meaningful population).
	TrainEpochs int
	// Noise is the synthetic dataset's pixel-noise std. The default (0.6)
	// leaves realistic decision margins; near-zero noise produces models
	// so over-margined that single faults almost never flip Top-1.
	Noise float32
	Seed  int64
	// Metrics, when non-nil, receives the engines' counters and
	// histograms; all per-model campaigns share the one registry.
	Metrics *obs.Registry
	// PrefixReuse resumes trial forwards from checkpointed clean-prefix
	// activations (see campaign.Config.PrefixReuse). Throughput only;
	// results are byte-identical either way.
	PrefixReuse bool
	// TrialBatch packs up to K trials into one forward pass (see
	// campaign.Config.TrialBatch); 0 defaults to 8 lanes. Throughput
	// only; results are byte-identical either way.
	TrialBatch int
	// Schedule selects how the engine uses the TrialBatch lanes (see
	// campaign.Config.Schedule); the zero value is the cost-modeled
	// campaign.ScheduleAuto. Throughput only; results are
	// byte-identical under every schedule.
	Schedule campaign.Schedule
	// StopCI, when positive, halts each per-model campaign once the
	// SDC-rate CI half-width is at most this value at the StopConf level
	// (TrialsPerModel then caps the budget); see
	// campaign.Config.Stop. StopConf 0 means 0.95, StopMin 0 means
	// stats.DefaultMinTrials.
	StopCI   float64
	StopConf float64
	StopMin  int
	// Backend selects the tensor execution path ("f32" default, "int8"
	// for the quantized GEMM/conv backend — see
	// GenericCampaignConfig.Backend).
	Backend string
	// Scenario, when non-nil, replaces the hand-wired single-random-
	// neuron bit-flip arming with the scenario's compiled selector and
	// per-layer error models, applied to every model in the study. The
	// scenario must stay inside the Figure 4 shape: neuron scope, int8
	// value domain, no observers (the study runs one campaign per
	// model; per-layer observer reports belong to gofi-campaign). The
	// scenario's backend supersedes Backend; its model/run blocks are
	// ignored — the study's own fixture fields and budgets apply.
	Scenario *scenario.Scenario
}

func (c Fig4Config) canon() Fig4Config {
	if c.Models == nil {
		c.Models = models.Fig4Models()
	}
	if c.TrialsPerModel <= 0 {
		c.TrialsPerModel = 500
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Classes <= 0 {
		c.Classes = 10
	}
	if c.InSize <= 0 {
		c.InSize = 32
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 8
	}
	if c.Noise == 0 {
		c.Noise = 0.6
	}
	if c.TrialBatch == 0 {
		c.TrialBatch = defaultTrialBatch
	}
	return c
}

// Fig4Row is one bar of Figure 4.
type Fig4Row struct {
	Model      string
	CleanAcc   float64 // accuracy of the trained INT8-emulated network
	Trials     int
	Top1Mis    int
	Rate       float64
	CILo, CIHi float64 // Wilson 99% interval
	OutOfTop5  int
	NonFinite  int
	// StopTrial is the index the early-stopping rule fired on (-1 when
	// the rule never fired or StopCI was unset).
	StopTrial int
}

// RunFig4 reproduces Figure 4: for each network, train on the synthetic
// dataset, emulate INT8 neuron quantization, and run a single-bit-flip
// campaign on random neurons of correctly-classified inputs, reporting the
// Top-1 misclassification probability with 99% confidence intervals.
func RunFig4(ctx context.Context, cfg Fig4Config) ([]Fig4Row, error) {
	cfg = cfg.canon()
	var rows []Fig4Row
	for _, name := range cfg.Models {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		row, err := runFig4Model(ctx, name, cfg)
		if err != nil {
			return rows, fmt.Errorf("fig4 %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runFig4Model(ctx context.Context, name string, cfg Fig4Config) (Fig4Row, error) {
	// Validate the scenario before training: a rejected config should
	// fail in milliseconds, not after the fixture trains.
	if cfg.Scenario != nil {
		s := cfg.Scenario.Canon()
		if err := s.Validate(); err != nil {
			return Fig4Row{}, err
		}
		if s.Fault.Scope != "neuron" {
			return Fig4Row{}, fmt.Errorf("fig4 scenarios cover neuron faults only, got scope %q", s.Fault.Scope)
		}
		if s.Fault.DType != "int8" {
			return Fig4Row{}, fmt.Errorf("fig4 is the INT8 resiliency study; scenario dtype must be int8, got %q", s.Fault.DType)
		}
		if len(s.Observers) != 0 {
			return Fig4Row{}, fmt.Errorf("fig4 scenarios take no observers; run them through gofi-campaign")
		}
		if cfg.Backend != "" && cfg.Backend != s.Fault.Backend {
			return Fig4Row{}, fmt.Errorf("-backend %s conflicts with the scenario's backend %s", cfg.Backend, s.Fault.Backend)
		}
		cfg.Backend = s.Fault.Backend
		cfg.Scenario = &s
	}

	trained, ds, eligible, err := trainedModel(name, cfg.Classes, cfg.InSize, cfg.Noise, cfg.Seed, cfg.TrainEpochs)
	if err != nil {
		return Fig4Row{}, err
	}
	if len(eligible) == 0 {
		return Fig4Row{}, fmt.Errorf("model classifies nothing correctly after training")
	}
	backend, err := ParseBackend(cfg.Backend)
	if err != nil {
		return Fig4Row{}, err
	}
	injCfg := core.Config{
		Batch: cfg.TrialBatch, Height: cfg.InSize, Width: cfg.InSize, DType: core.INT8, Seed: cfg.Seed,
	}
	calib, _ := ds.Batch(0, 8)
	var newReplica func(int) (*core.Injector, error)
	if backend == "int8" {
		newReplica, err = quantReplicaFactory(name, cfg.Classes, cfg.InSize, cfg.Seed, trained, calib,
			nn.QuantizeOptions{}, injCfg, false)
		if err != nil {
			return Fig4Row{}, err
		}
	} else {
		base := replicaFactory(name, cfg.Classes, cfg.InSize, cfg.Seed, trained, injCfg)
		newReplica = func(worker int) (*core.Injector, error) {
			inj, err := base(worker)
			if err != nil {
				return nil, err
			}
			if err := inj.CalibrateINT8(calib); err != nil {
				return nil, err
			}
			if err := inj.EnableActQuant(true); err != nil {
				return nil, err
			}
			return inj, nil
		}
	}

	var watcher *stats.Sequential
	if cfg.StopCI > 0 {
		rule := stats.StopRule{HalfWidth: cfg.StopCI, Confidence: cfg.StopConf, MinTrials: cfg.StopMin}
		if err := rule.Validate(); err != nil {
			return Fig4Row{}, err
		}
		watcher = stats.NewSequential(rule)
	}
	ccfg := campaign.Config{
		Workers:    cfg.Workers,
		Trials:     cfg.TrialsPerModel,
		Seed:       cfg.Seed + 17,
		NewReplica: newReplica,
		Source:     ds,
		Eligible:   eligible,
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
			return err
		},
		Metrics:     cfg.Metrics,
		PrefixReuse: cfg.PrefixReuse,
		TrialBatch:  cfg.TrialBatch,
		Schedule:    cfg.Schedule,
	}
	if cfg.Scenario != nil {
		// A compiled scenario supersedes the hand-wired arm: probe one
		// replica for the layer geometry, then let the selector drive.
		probe, err := newReplica(0)
		if err != nil {
			return Fig4Row{}, err
		}
		layers := probe.Layers()
		probe.Detach()
		compiled, err := scenario.Compile(*cfg.Scenario, layers)
		if err != nil {
			return Fig4Row{}, err
		}
		ccfg.ArmTrial = compiled.ArmTrial
	}
	if watcher != nil {
		ccfg.Stop = watcher
	}
	agg, err := campaign.Run(ctx, ccfg)
	if err != nil {
		return Fig4Row{}, err
	}
	lo, hi := agg.WilsonCI(campaign.Z99)
	row := Fig4Row{
		Model:     name,
		CleanAcc:  float64(len(eligible)) / 128,
		Trials:    agg.Trials,
		Top1Mis:   agg.Top1Mis,
		Rate:      agg.Rate(),
		CILo:      lo,
		CIHi:      hi,
		OutOfTop5: agg.OutOfTop5,
		NonFinite: agg.NonFinite,
		StopTrial: -1,
	}
	if watcher != nil {
		row.StopTrial = watcher.StopTrial()
	}
	return row, nil
}
