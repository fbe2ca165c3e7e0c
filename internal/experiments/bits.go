package experiments

import (
	"context"
	"fmt"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/obs"
)

// BitStudyConfig drives the bit-position sensitivity study: a campaign
// per bit position, the classic analysis for deciding which bits need
// protection (parity/ECC placement).
type BitStudyConfig struct {
	// Model defaults to alexnet; the other fixture fields default as in
	// GenericCampaignConfig.
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
	// Stop, when on, gives every bit position its own sequential stopping
	// rule (TrialsPerBit then caps the budget); see
	// GenericCampaignConfig.Stop.
	Stop stats.StopRule
}

func (c BitStudyConfig) canon() BitStudyConfig {
	if c.Model == "" {
		c.Model = "alexnet"
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
	// (-1 when the rule never fired or Stop was off).
	StopTrial int
}

// RunBitStudy trains the model once, then runs one single-bit-flip
// campaign per bit position of the emulated data type, reporting the
// Top-1 misclassification rate by bit. The expected shape: high-order
// (exponent/sign for floats, magnitude for INT8) bits dominate, low-order
// mantissa bits are almost always masked.
func RunBitStudy(ctx context.Context, cfg BitStudyConfig) ([]BitStudyRow, error) {
	cfg = cfg.canon()
	flipBit := func(bit int) ArmFunc { return armNeuron(core.BitFlip{Bit: bit}) }
	env, err := PrepareGenericCampaign(ctx, GenericCampaignConfig{
		Model: cfg.Model, Classes: cfg.Classes, InSize: cfg.InSize, TrainEpochs: cfg.TrainEpochs, Noise: cfg.Noise,
		Trials: cfg.TrialsPerBit, Workers: cfg.Workers, DType: cfg.DType, Backend: cfg.Backend,
		Arm: flipBit(0), Seed: cfg.Seed, Metrics: cfg.Metrics, PrefixReuse: true, Stop: cfg.Stop,
	})
	if err != nil {
		return nil, fmt.Errorf("bit study: %w", err)
	}

	bits := cfg.DType.Bits()
	rows := make([]BitStudyRow, 0, bits)
	for b := 0; b < bits; b++ {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		// Each bit position is its own leg with a fresh watcher: a
		// quickly-converging low mantissa bit does not starve a noisy
		// exponent bit of trials.
		agg, stopTrial, err := env.runLeg(ctx, cfg.Seed+int64(b)*37, flipBit(b))
		if err != nil {
			return rows, fmt.Errorf("bit study bit %d: %w", b, err)
		}
		lo, hi := agg.WilsonCI(campaign.Z99)
		rows = append(rows, BitStudyRow{
			Bit: b, Trials: agg.Trials, Top1Mis: agg.Top1Mis,
			NonFinite: agg.NonFinite, Rate: agg.Rate(), CILo: lo, CIHi: hi,
			StopTrial: stopTrial,
		})
	}
	return rows, nil
}
