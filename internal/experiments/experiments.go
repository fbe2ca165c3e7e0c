// Package experiments implements the paper's evaluation harnesses: one
// runner per table/figure, each returning structured results that the
// cmd/gofi-* binaries render and EXPERIMENTS.md records. Every runner is
// parameterized so the benchmark suite can exercise it at reduced scale.
package experiments

import (
	"fmt"
	"math/rand"

	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/tensor"
	"gofi/internal/train"
)

// ParseBackend canonicalizes a -backend flag spelling to "f32" or
// "int8".
func ParseBackend(s string) (string, error) {
	switch s {
	case "", "f32", "fp32", "float32":
		return "f32", nil
	case "int8", "i8":
		return "int8", nil
	}
	return "", fmt.Errorf("unknown backend %q (want f32 or int8)", s)
}

// dataset returns the synthetic stand-in for a benchmark image dataset.
// Higher noise thins the decision margins, which controls how often a
// single fault can flip a prediction.
func dataset(classes, size int, noise float32, seed int64) (*data.Classification, error) {
	return data.NewClassification(data.ClassificationConfig{
		Classes: classes, Channels: 3, Size: size, Noise: noise, Seed: seed,
	})
}

// Fixture is a trained model ready to become a campaign environment: what
// a study has once training is over, whoever did the training. The named
// fixtures come from trainedModel; a study that trains its own model (an
// ibp.Net, a twin trained under injection) fills one in itself and hands
// it to prepareOnFixture.
type Fixture struct {
	// Trained is the model whose weights every worker replica shares (or
	// copies); its hooks, if training armed any, are detached.
	Trained nn.Layer
	// Build returns a fresh instance of Trained's architecture for one
	// worker replica; its initial weights are immediately replaced.
	Build func() (nn.Layer, error)
	// Source holds the evaluation samples, Eligible the indices Trained
	// classifies correctly among the HeldOut samples it was scored on, so
	// clean accuracy is len(Eligible) / HeldOut.
	Source   *data.Classification
	Eligible []int
	HeldOut  int
}

// scored fills in fx.Eligible by scoring fx.Trained, in evaluation mode,
// on the n held-out samples from lo on.
func (fx Fixture) scored(lo, n int) Fixture {
	fx.Eligible, fx.HeldOut = train.CorrectIndices(fx.Trained, fx.Source, lo, n, 16), n
	return fx
}

// trainedModel builds and quickly trains a registry model on a synthetic
// dataset and scores it on a held-out range.
func trainedModel(name string, classes, inSize int, noise float32, seed int64, epochs int) (Fixture, error) {
	ds, err := dataset(classes, inSize, noise, seed)
	if err != nil {
		return Fixture{}, err
	}
	build := func() (nn.Layer, error) {
		return models.Build(name, rand.New(rand.NewSource(seed)), classes, inSize)
	}
	model, err := build()
	if err != nil {
		return Fixture{}, err
	}
	if _, err := train.Loop(model, ds, train.Config{
		Epochs:    epochs,
		BatchSize: 16,
		TrainSize: 384,
		LR:        0.02,
		Momentum:  0.9,
		// Halving the LR every two epochs keeps the late, overconfident
		// phase (logits in the tens, near-zero loss) from blowing up when
		// an outlier batch finally produces a large gradient — at a fixed
		// LR of 0.02 with momentum 0.9 that spike can diverge, and whether
		// it does is knife-edge sensitive to the last bits of the kernels.
		LRDropEvery: 2,
	}); err != nil {
		return Fixture{}, fmt.Errorf("train %s: %w", name, err)
	}
	return Fixture{Trained: model, Build: build, Source: ds}.scored(100_000, 128), nil
}

// replicaFactory returns a campaign NewReplica function over a fixture:
// each worker gets a private instance of the architecture wrapped in its
// own injector at injCfg's emulated data type (INT8 calibrated against
// calib, FP16 rounding). The replicas share the trained weight storage
// (read-only during neuron campaigns) unless isolate is set, which
// weight-injection campaigns need because each worker mutates its own
// copy.
//
// With quant non-nil the campaign runs on the int8 tensor backend: the
// trained master is quantized once against calib (deterministic given
// weights and calibration batch), each replica shares the quantized plan
// and its injector adopts the plan's activation grids via
// UseQuantizedModel. An isolated replica re-quantizes its copied weights
// instead — same plan bit-for-bit, but private code arrays, so
// weight-code faults stay confined to their worker.
func replicaFactory(fx Fixture, calib *tensor.Tensor, quant *nn.QuantizeOptions, injCfg core.Config, isolate bool) (func(int) (*core.Injector, error), error) {
	if quant != nil {
		if err := nn.QuantizeModel(fx.Trained, calib, *quant); err != nil {
			return nil, err
		}
	}
	return func(worker int) (*core.Injector, error) {
		replica, err := fx.Build()
		if err != nil {
			return nil, err
		}
		if isolate {
			if err = nn.CopyParams(replica, fx.Trained); err == nil && quant != nil {
				err = nn.QuantizeModel(replica, calib, *quant)
			}
		} else {
			if err = nn.ShareParams(replica, fx.Trained); err == nil && quant != nil {
				err = nn.ShareQuant(replica, fx.Trained)
			}
		}
		if err != nil {
			return nil, err
		}
		cfg := injCfg
		cfg.Seed = injCfg.Seed + int64(worker)*7919
		inj, err := core.New(replica, cfg)
		if err != nil {
			return nil, err
		}
		switch {
		case quant != nil:
			err = inj.UseQuantizedModel()
		case cfg.DType == core.INT8:
			if err = inj.CalibrateINT8(calib); err == nil {
				err = inj.EnableActQuant(true)
			}
		case cfg.DType == core.FP16:
			err = inj.EnableFP16Acts(true)
		}
		if err != nil {
			return nil, err
		}
		return inj, nil
	}, nil
}
