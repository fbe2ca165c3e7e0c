package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/nn"
	"gofi/internal/obs"
)

// BitStudyConfig drives the bit-position sensitivity study: a campaign
// per bit position, the classic analysis for deciding which bits need
// protection (parity/ECC placement).
type BitStudyConfig struct {
	Model           string
	Classes, InSize int
	TrainEpochs     int
	Noise           float32
	TrialsPerBit    int
	Workers         int
	DType           core.DType // FP32, FP16 or INT8
	Seed            int64
	// Metrics, when non-nil, receives the engines' counters and
	// histograms; all per-bit campaigns share the one registry.
	Metrics *obs.Registry
	// Backend selects the tensor execution path ("f32" default, "int8"
	// for the quantized GEMM/conv backend; implies DType INT8 — see
	// GenericCampaignConfig.Backend).
	Backend string
	// StopCI, when positive, attaches a per-bit sequential stopping rule:
	// each bit's campaign halts once its SDC-rate CI half-width is at
	// most StopCI at the StopConf level (0 = 0.95), never before StopMin
	// observed trials (0 = stats.DefaultMinTrials). TrialsPerBit then
	// caps the budget instead of fixing it.
	StopCI   float64
	StopConf float64
	StopMin  int
}

func (c BitStudyConfig) canon() BitStudyConfig {
	if c.Model == "" {
		c.Model = "alexnet"
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
	if c.TrialsPerBit <= 0 {
		c.TrialsPerBit = 200
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.DType == 0 {
		c.DType = core.INT8
	}
	return c
}

// BitStudyRow is one bit position's measured vulnerability.
type BitStudyRow struct {
	Bit        int
	Trials     int
	Top1Mis    int
	NonFinite  int
	Rate       float64
	CILo, CIHi float64
	// StopTrial is the index this bit's early-stopping rule fired on
	// (-1 when the rule never fired or StopCI was unset).
	StopTrial int
}

// RunBitStudy trains the model once, then runs one single-bit-flip
// campaign per bit position of the emulated data type, reporting the
// Top-1 misclassification rate by bit. The expected shape: high-order
// (exponent/sign for floats, magnitude for INT8) bits dominate, low-order
// mantissa bits are almost always masked.
func RunBitStudy(ctx context.Context, cfg BitStudyConfig) ([]BitStudyRow, error) {
	cfg = cfg.canon()
	trained, ds, eligible, err := trainedModel(cfg.Model, cfg.Classes, cfg.InSize, cfg.Noise, cfg.Seed, cfg.TrainEpochs)
	if err != nil {
		return nil, fmt.Errorf("bit study: %w", err)
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("bit study: model classifies nothing correctly")
	}

	backend, err := ParseBackend(cfg.Backend)
	if err != nil {
		return nil, fmt.Errorf("bit study: %w", err)
	}
	if backend == "int8" {
		if cfg.DType != core.INT8 {
			return nil, fmt.Errorf("bit study: int8 backend implies -dtype int8, got %s", cfg.DType)
		}
	}
	injCfg := core.Config{
		Height: cfg.InSize, Width: cfg.InSize, DType: cfg.DType, Seed: cfg.Seed,
	}
	calib, _ := ds.Batch(0, 8)
	var newReplica func(int) (*core.Injector, error)
	if backend == "int8" {
		newReplica, err = quantReplicaFactory(cfg.Model, cfg.Classes, cfg.InSize, cfg.Seed, trained, calib,
			nn.QuantizeOptions{}, injCfg, false)
		if err != nil {
			return nil, fmt.Errorf("bit study: %w", err)
		}
	} else {
		base := replicaFactory(cfg.Model, cfg.Classes, cfg.InSize, cfg.Seed, trained, injCfg)
		newReplica = func(worker int) (*core.Injector, error) {
			inj, err := base(worker)
			if err != nil {
				return nil, err
			}
			switch cfg.DType {
			case core.INT8:
				if err := inj.CalibrateINT8(calib); err != nil {
					return nil, err
				}
				if err := inj.EnableActQuant(true); err != nil {
					return nil, err
				}
			case core.FP16:
				if err := inj.EnableFP16Acts(true); err != nil {
					return nil, err
				}
			}
			return inj, nil
		}
	}

	var rule stats.StopRule
	if cfg.StopCI > 0 {
		rule = stats.StopRule{HalfWidth: cfg.StopCI, Confidence: cfg.StopConf, MinTrials: cfg.StopMin}
		if err := rule.Validate(); err != nil {
			return nil, fmt.Errorf("bit study: %w", err)
		}
	}

	bits := cfg.DType.Bits()
	rows := make([]BitStudyRow, 0, bits)
	for b := 0; b < bits; b++ {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		bit := b
		// Each bit position gets a fresh watcher: stopping decisions are
		// per-stratum, so a quickly-converging low mantissa bit does not
		// starve a noisy exponent bit of trials.
		var watcher *stats.Sequential
		if cfg.StopCI > 0 {
			watcher = stats.NewSequential(rule)
		}
		ccfg := campaign.Config{
			Workers:    cfg.Workers,
			Trials:     cfg.TrialsPerBit,
			Seed:       cfg.Seed + int64(b)*37,
			NewReplica: newReplica,
			Source:     ds,
			Eligible:   eligible,
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: bit})
				return err
			},
			Metrics: cfg.Metrics,
		}
		if watcher != nil {
			ccfg.Stop = watcher
		}
		agg, err := campaign.Run(ctx, ccfg)
		if err != nil {
			return rows, fmt.Errorf("bit study bit %d: %w", b, err)
		}
		lo, hi := agg.WilsonCI(campaign.Z99)
		row := BitStudyRow{
			Bit: b, Trials: agg.Trials, Top1Mis: agg.Top1Mis,
			NonFinite: agg.NonFinite, Rate: agg.Rate(), CILo: lo, CIHi: hi,
			StopTrial: -1,
		}
		if watcher != nil {
			row.StopTrial = watcher.StopTrial()
		}
		rows = append(rows, row)
	}
	return rows, nil
}
