// Classification resiliency (use case A, §IV-A): train a small CNN on the
// synthetic dataset, then run a single-bit-flip injection campaign over
// correctly-classified inputs and report the corruption statistics.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/train"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "classification:", err)
		os.Exit(1)
	}
}

func run() error {
	ds, err := data.NewClassification(data.ClassificationConfig{
		Classes: 10, Channels: 3, Size: 32, Noise: 0.6, Seed: 7,
	})
	if err != nil {
		return err
	}

	// Train AlexNet to high accuracy (seconds on CPU).
	rng := rand.New(rand.NewSource(7))
	model, err := models.Build("alexnet", rng, 10, 32)
	if err != nil {
		return err
	}
	fmt.Println("training alexnet on the synthetic dataset...")
	if _, err := train.Loop(model, ds, train.Config{
		Epochs: 8, BatchSize: 16, TrainSize: 384, LR: 0.02, Momentum: 0.9,
	}); err != nil {
		return err
	}
	eligible := train.CorrectIndices(model, ds, 100_000, 128, 16)
	fmt.Printf("clean accuracy: %d/128 correctly classified\n", len(eligible))

	// Campaign: one INT8 bit flip in a random neuron per trial, only on
	// correctly classified inputs.
	newReplica := func(worker int) (*core.Injector, error) {
		replica, err := models.Build("alexnet", rand.New(rand.NewSource(7)), 10, 32)
		if err != nil {
			return nil, err
		}
		if err := nn.ShareParams(replica, model); err != nil {
			return nil, err
		}
		inj, err := core.New(replica, core.Config{Height: 32, Width: 32, DType: core.INT8, Seed: int64(worker)})
		if err != nil {
			return nil, err
		}
		calib, _ := ds.Batch(0, 8)
		if err := inj.CalibrateINT8(calib); err != nil {
			return nil, err
		}
		if err := inj.EnableActQuant(true); err != nil {
			return nil, err
		}
		return inj, nil
	}
	agg, err := campaign.Run(context.Background(), campaign.Config{
		Workers:    2,
		Trials:     400,
		Seed:       99,
		NewReplica: newReplica,
		Source:     ds,
		Eligible:   eligible,
		ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
			_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
			return err
		},
	})
	if err != nil {
		return err
	}

	lo, hi := agg.WilsonCI(campaign.Z99)
	fmt.Printf("\ncampaign: %d trials\n", agg.Trials)
	fmt.Printf("Top-1 misclassifications: %d (%.2f%%, 99%% CI [%.2f%%, %.2f%%])\n",
		agg.Top1Mis, 100*agg.Rate(), 100*lo, 100*hi)
	fmt.Printf("clean Top-1 out of faulty Top-5: %d\n", agg.OutOfTop5)
	fmt.Printf("confidence drops > 0.2: %d\n", agg.BigConfDrop)
	fmt.Printf("non-finite outputs: %d\n", agg.NonFinite)
	return nil
}
