// Command gofi-ibp regenerates the paper's Figure 6: the bit-flip
// vulnerability of AlexNet's first two layers after IBP training, relative
// to a conventionally trained baseline, across the (α, ε) grid.
//
// Usage:
//
//	gofi-ibp [-trials N] [-epochs N] [-quick]
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
		fmt.Fprintln(os.Stderr, "gofi-ibp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gofi-ibp", flag.ContinueOnError)
	trials := fs.Int("trials", 800, "bit-flip trials per trained model")
	epochs := fs.Int("epochs", 8, "training epochs per model")
	quick := fs.Bool("quick", false, "sweep a 2x2 grid instead of the paper's 3x4")
	seed := fs.Int64("seed", 1, "experiment seed")
	size := fs.Int("size", 16, "input image size")
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

	cfg := experiments.Fig6Config{
		Trials:      *trials,
		TrainEpochs: *epochs,
		InSize:      *size,
		Seed:        *seed,
		Metrics:     metrics,
	}
	if *quick {
		cfg.Alphas = []float64{0.025, 0.25}
		cfg.Epsilons = []float32{0.125, 0.5}
	}
	res, err := experiments.RunFig6(ctx, cfg)
	if err != nil {
		return err
	}

	fmt.Println("Figure 6 — relative vulnerability of AlexNet's first two layers after IBP")
	fmt.Printf("(baseline = same initialization, α = 0; baseline clean accuracy %.1f%%)\n", 100*res.BaselineAcc)
	tb := report.NewTable("eps", "alpha", "CleanAcc (%)", "IBP mis/trials (rate, 99% CI)", "Baseline mis/trials (rate, 99% CI)", "Relative")
	for _, r := range res.Rows {
		tb.AddRow(r.Eps, r.Alpha, 100*r.CleanAcc, r.IBP, r.Base, r.RelativeText())
	}
	tb.Render(os.Stdout)

	// A ratio over a baseline that saw no misclassification is undefined,
	// not zero: such rows read n/a above and get no bar.
	chart := &report.BarChart{Title: "\nRelative vulnerability (< 1 means IBP improved resilience)"}
	for _, r := range res.Rows {
		if rel, ok := r.Relative(); ok {
			chart.Add(fmt.Sprintf("e=%.3g a=%.3g", r.Eps, r.Alpha), rel, "")
		}
	}
	chart.Render(os.Stdout)
	return nil
}
