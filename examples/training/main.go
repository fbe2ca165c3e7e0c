// Error-injection training (use case D, §IV-D): train twin models from
// identical initialization, one with a random neuron per layer perturbed
// every forward pass, then compare clean accuracy and post-training
// resilience.
package main

import (
	"context"
	"fmt"
	"os"

	"gofi/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "training:", err)
		os.Exit(1)
	}
}

func run() error {
	res, err := experiments.RunTable1(context.Background(), experiments.Table1Config{
		Model:      "resnet18",
		Classes:    4,
		InSize:     16,
		Epochs:     4,
		TrainSize:  256,
		BatchSize:  16,
		EvalTrials: 300,
		Seed:       21,
	})
	if err != nil {
		return err
	}
	fmt.Println("twin training: baseline vs. injection-during-training (ResNet-18)")
	fmt.Printf("training time:   baseline %v, GoFI %v\n", res.BaselineTrainTime.Round(1e6), res.FITrainTime.Round(1e6))
	fmt.Printf("test accuracy:   baseline %.1f%%, GoFI %.1f%%\n", 100*res.BaselineAcc, 100*res.FIAcc)
	fmt.Printf("post-training mis/trials (rate, 99%% CI): baseline %v, GoFI %v\n", res.Baseline, res.FI)
	fmt.Println("→ " + res.Verdict() + ".")
	return nil
}
