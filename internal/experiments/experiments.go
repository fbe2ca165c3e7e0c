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

// dataset returns the synthetic stand-in for a named benchmark dataset.
// Higher noise thins the decision margins, which controls how often a
// single fault can flip a prediction.
func dataset(name string, classes, size int, noise float32, seed int64) (*data.Classification, error) {
	return data.NewClassification(data.ClassificationConfig{
		Classes:  classes,
		Channels: 3,
		Size:     size,
		Noise:    noise,
		Seed:     seed,
	})
}

// heldOutSamples is how many held-out samples a trained fixture is scored
// on: the eligible indices are the correctly classified ones among them,
// so clean accuracy is len(eligible) / heldOutSamples.
const heldOutSamples = 128

// trainedModel builds and quickly trains a registry model on a synthetic
// dataset, returning the model and its eligible (correctly classified)
// sample indices from a held-out range.
func trainedModel(name string, classes, inSize int, noise float32, seed int64, epochs int) (nn.Layer, *data.Classification, []int, error) {
	ds, err := dataset(name, classes, inSize, noise, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	model, err := models.Build(name, rng, classes, inSize)
	if err != nil {
		return nil, nil, nil, err
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
		return nil, nil, nil, fmt.Errorf("train %s: %w", name, err)
	}
	eligible := train.CorrectIndices(model, ds, 100_000, heldOutSamples, 16)
	return model, ds, eligible, nil
}

// quantReplicaFactory wires the int8 tensor backend into a campaign: the
// trained master is quantized once against calib (deterministic given
// weights and calibration batch), then each worker replica shares the
// float32 parameters and the quantized plan, and its injector adopts the
// plan's activation grids via UseQuantizedModel. When isolate is true
// each replica instead deep-copies the weights and re-quantizes — same
// plan bit-for-bit, but private code arrays, so weight-code faults stay
// confined to their worker.
func quantReplicaFactory(name string, classes, inSize int, seed int64, trained nn.Layer, calib *tensor.Tensor, opts nn.QuantizeOptions, injCfg core.Config, isolate bool) (func(int) (*core.Injector, error), error) {
	if err := nn.QuantizeModel(trained, calib, opts); err != nil {
		return nil, err
	}
	return func(worker int) (*core.Injector, error) {
		rng := rand.New(rand.NewSource(seed))
		replica, err := models.Build(name, rng, classes, inSize)
		if err != nil {
			return nil, err
		}
		if isolate {
			if err := nn.CopyParams(replica, trained); err != nil {
				return nil, err
			}
			if err := nn.QuantizeModel(replica, calib, opts); err != nil {
				return nil, err
			}
		} else {
			if err := nn.ShareParams(replica, trained); err != nil {
				return nil, err
			}
			if err := nn.ShareQuant(replica, trained); err != nil {
				return nil, err
			}
		}
		cfg := injCfg
		cfg.DType = core.INT8
		cfg.Seed = injCfg.Seed + int64(worker)*7919
		inj, err := core.New(replica, cfg)
		if err != nil {
			return nil, err
		}
		if err := inj.UseQuantizedModel(); err != nil {
			return nil, err
		}
		return inj, nil
	}, nil
}

// replicaFactory returns a campaign NewReplica function: each worker gets
// a private architecture instance wrapped in its own injector. The
// replicas share the trained weight storage (read-only during neuron
// campaigns) unless copyWeights is set, which weight-injection campaigns
// need because each worker mutates its own copy.
func replicaFactory(name string, classes, inSize int, seed int64, trained nn.Layer, injCfg core.Config, copyWeights bool) func(int) (*core.Injector, error) {
	return func(worker int) (*core.Injector, error) {
		rng := rand.New(rand.NewSource(seed))
		replica, err := models.Build(name, rng, classes, inSize)
		if err != nil {
			return nil, err
		}
		if copyWeights {
			err = nn.CopyParams(replica, trained)
		} else {
			err = nn.ShareParams(replica, trained)
		}
		if err != nil {
			return nil, err
		}
		cfg := injCfg
		cfg.Seed = injCfg.Seed + int64(worker)*7919
		return core.New(replica, cfg)
	}
}
