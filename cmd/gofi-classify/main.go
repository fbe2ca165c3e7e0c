// Command gofi-classify regenerates the paper's Figure 4: the Top-1
// misclassification probability of INT8-quantized networks under
// single-bit-flip neuron injections, with 99% confidence intervals.
//
// Usage:
//
//	gofi-classify [-trials N] [-workers N] [-models alexnet,vgg19]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gofi/internal/experiments"
	"gofi/internal/obs"
	"gofi/internal/report"
	"gofi/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gofi-classify:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gofi-classify", flag.ContinueOnError)
	trials := fs.Int("trials", 2000, "injection trials per network")
	workers := fs.Int("workers", 4, "parallel campaign workers")
	modelsFlag := fs.String("models", "", "comma-separated subset of networks (default: the paper's six)")
	epochs := fs.Int("epochs", 6, "training epochs per network before the campaign")
	seed := fs.Int64("seed", 1, "experiment seed")
	size := fs.Int("size", 32, "input image size")
	var stopFlags experiments.StopFlags
	stopFlags.AddFlags(fs, "each per-model campaign")
	backend := fs.String("backend", "f32", "tensor execution backend: f32 emulates INT8 on float32 kernels; int8 quantizes each trained network and runs its campaign on the int8 GEMM/conv backend")
	scenarioPath := fs.String("scenario", "", "replace the hand-wired single-random-neuron bit-flip arming with a declarative scenario file (YAML or JSON, neuron scope, int8 dtype, no observers); the scenario's backend supersedes -backend and its model/run blocks are ignored — this study's own fixture flags and budgets apply")
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

	be, err := experiments.ParseBackend(*backend)
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	if *trials <= 0 {
		return experiments.UsageError(fs, "-trials must be positive, got %d", *trials)
	}
	stop, err := stopFlags.Rule()
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	var sc *scenario.Scenario
	if *scenarioPath != "" {
		backendSet := false
		fs.Visit(func(f *flag.Flag) { backendSet = backendSet || f.Name == "backend" })
		loaded, err := scenario.Load(*scenarioPath)
		if err != nil {
			return err
		}
		sc = &loaded
		if !backendSet {
			be = "" // let the scenario's backend apply unchallenged
		}
	}
	cfg := experiments.Fig4Config{
		TrialsPerModel: *trials,
		Workers:        *workers,
		TrainEpochs:    *epochs,
		InSize:         *size,
		Seed:           *seed,
		Metrics:        metrics,
		Stop:           stop,
		Backend:        be,
		Scenario:       sc,
	}
	if *modelsFlag != "" {
		cfg.Models = strings.Split(*modelsFlag, ",")
	}
	rows, err := experiments.RunFig4(ctx, cfg)
	if err != nil {
		return err
	}

	if sc != nil {
		s := sc.Canon()
		fmt.Printf("Figure 4 — Top-1 misclassification under scenario %s (%s error model, %s selector, %s backend)\n",
			*scenarioPath, s.Fault.Error.Kind, s.Selector.Kind, s.Fault.Backend)
	} else {
		fmt.Printf("Figure 4 — Top-1 misclassification probability under single INT8 bit flips (%s backend)\n", be)
	}
	fmt.Println("(synthetic 10-class dataset stands in for ImageNet; each network trained to")
	fmt.Println(" high accuracy first; injections only on correctly-classified inputs)")
	tb, addRow := experiments.StopTable(stop, "Network", "CleanAcc", "Trials", "Top1-Mis", "Rate (%)", "99% CI (%)", "OutOfTop5", "NonFinite")
	for _, r := range rows {
		addRow(r.StopTrial, r.Model, r.CleanAcc, r.Trials, r.Top1Mis,
			100*r.Rate, fmt.Sprintf("[%.3f, %.3f]", 100*r.CILo, 100*r.CIHi),
			r.OutOfTop5, r.NonFinite)
	}
	tb.Render(os.Stdout)

	chart := &report.BarChart{Title: "\nTop-1 misclassification probability", Unit: "%"}
	for _, r := range rows {
		chart.Add(r.Model, 100*r.Rate, fmt.Sprintf("CI [%.3f, %.3f]", 100*r.CILo, 100*r.CIHi))
	}
	chart.Render(os.Stdout)
	return nil
}
