// Command gofi-bits runs the bit-position sensitivity study: one
// single-bit-flip campaign per bit of the emulated data type, answering
// "which bits actually corrupt the output?" — the analysis behind
// selective ECC/parity protection of DNN accelerator datapaths.
//
// Usage:
//
//	gofi-bits [-model alexnet] [-dtype int8|fp16|fp32] [-trials N]
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
		fmt.Fprintln(os.Stderr, "gofi-bits:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gofi-bits", flag.ContinueOnError)
	model := fs.String("model", "alexnet", "architecture to study")
	dtype := fs.String("dtype", "int8", "emulated data type: fp32, fp16, int8")
	trials := fs.Int("trials", 200, "injection trials per bit position")
	epochs := fs.Int("epochs", 8, "training epochs before the study")
	size := fs.Int("size", 32, "input image size")
	seed := fs.Int64("seed", 1, "experiment seed")
	backend := fs.String("backend", "f32", "tensor execution backend: f32 emulates -dtype on float32 kernels; int8 quantizes the trained model and runs the study on the int8 GEMM/conv backend (requires -dtype int8)")
	var stopFlags experiments.StopFlags
	stopFlags.AddFlags(fs, "each bit's campaign")
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
	dt, err := experiments.ParseDType(*dtype)
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	be, err := experiments.ParseBackend(*backend)
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	stop, err := stopFlags.Rule()
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}

	rows, err := experiments.RunBitStudy(ctx, experiments.BitStudyConfig{
		Model:        *model,
		TrialsPerBit: *trials,
		TrainEpochs:  *epochs,
		InSize:       *size,
		DType:        dt,
		Seed:         *seed,
		Metrics:      metrics,
		Backend:      be,
		Stop:         stop,
	})
	if err != nil {
		return err
	}

	fmt.Printf("Bit-position sensitivity — %s, %s neuron bit flips (%s backend)\n", *model, dt, be)
	tb, addRow := experiments.StopTable(stop, "Bit", "Trials", "Top1-Mis", "NonFinite", "Rate (%)", "99% CI (%)")
	for _, r := range rows {
		addRow(r.StopTrial, r.Bit, r.Trials, r.Top1Mis, r.NonFinite,
			100*r.Rate, fmt.Sprintf("[%.2f, %.2f]", 100*r.CILo, 100*r.CIHi))
	}
	tb.Render(os.Stdout)

	chart := &report.BarChart{Title: "\nTop-1 misclassification rate by flipped bit", Unit: "%"}
	for _, r := range rows {
		chart.Add(fmt.Sprintf("bit %2d", r.Bit), 100*r.Rate, "")
	}
	chart.Render(os.Stdout)
	return nil
}
