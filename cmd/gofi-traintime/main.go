// Command gofi-traintime regenerates the paper's Table I: training
// ResNet-18 with and without GoFI injections during the forward pass, then
// comparing training time, clean accuracy, and post-training injection
// misclassifications.
//
// Usage:
//
//	gofi-traintime [-epochs N] [-eval-trials N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"gofi/internal/experiments"
	"gofi/internal/obs"
	"gofi/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gofi-traintime:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gofi-traintime", flag.ContinueOnError)
	model := fs.String("model", "resnet18", "architecture to train")
	epochs := fs.Int("epochs", 6, "training epochs per twin")
	trainSize := fs.Int("train-size", 512, "samples per epoch")
	evalTrials := fs.Int("eval-trials", 2000, "post-training injection trials per twin")
	size := fs.Int("size", 32, "input image size")
	noise := fs.Float64("noise", 0.8, "dataset pixel-noise std (controls decision margins)")
	seed := fs.Int64("seed", 1, "experiment seed")
	var mcli obs.CLI
	mcli.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	metrics, err := mcli.Start()
	if err != nil {
		return err
	}
	defer mcli.Finish()

	res, err := experiments.RunTable1(ctx, experiments.Table1Config{
		Model:      *model,
		Epochs:     *epochs,
		TrainSize:  *trainSize,
		EvalTrials: *evalTrials,
		InSize:     *size,
		Noise:      float32(*noise),
		Seed:       *seed,
		Metrics:    metrics,
	})
	if err != nil {
		return err
	}

	fmt.Printf("Table I — training %s with and without GoFI injections\n", *model)
	fmt.Println("(both twins start from identical initialization; training-time injection:")
	fmt.Println(" one random neuron per layer set to U[-1,1) every forward pass; evaluation:")
	fmt.Println(" single random-neuron bit flips on correctly-classified test inputs)")
	tb := report.NewTable("Metric", "Baseline", "GoFI-trained")
	tb.AddRow("Training time", res.BaselineTrainTime.Round(1e6), res.FITrainTime.Round(1e6))
	tb.AddRow("Test accuracy (%)", 100*res.BaselineAcc, 100*res.FIAcc)
	tb.AddRow("Post-training mis/trials (rate, 99% CI)", res.Baseline, res.FI)
	tb.Render(os.Stdout)

	fmt.Println("\n→ " + res.Verdict() + ".")
	return nil
}
