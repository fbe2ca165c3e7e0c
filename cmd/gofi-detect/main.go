// Command gofi-detect regenerates the paper's Figure 5: clean vs.
// fault-injected object detection, demonstrating phantom objects under
// per-layer random-FP32 neuron injections.
//
// Usage:
//
//	gofi-detect [-scenes N] [-injections N] [-size N]
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
	"gofi/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gofi-detect:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gofi-detect", flag.ContinueOnError)
	scenes := fs.Int("scenes", 20, "held-out scenes to evaluate")
	injections := fs.Int("injections", 3, "injection repeats per scene")
	size := fs.Int("size", 32, "scene size in pixels")
	epochs := fs.Int("epochs", 12, "detector training epochs")
	seed := fs.Int64("seed", 1, "experiment seed")
	var stopFlags experiments.StopFlags
	stopFlags.AddFlags(fs, "the study")
	scenarioPath := fs.String("scenario", "", "replace the hand-wired per-layer random-FP32 arming with a declarative scenario file (YAML or JSON; neuron scope, fp32 dtype, f32 backend, no observers); the scenario's model/run blocks are ignored — the detector fixture and this study's budgets apply")
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

	stop, err := stopFlags.Rule()
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	var sc *scenario.Scenario
	if *scenarioPath != "" {
		loaded, err := scenario.Load(*scenarioPath)
		if err != nil {
			return err
		}
		sc = &loaded
	}
	res, err := experiments.RunFig5(ctx, experiments.Fig5Config{
		Scenes:             *scenes,
		InjectionsPerScene: *injections,
		SceneSize:          *size,
		TrainEpochs:        *epochs,
		Seed:               *seed,
		Metrics:            metrics,
		Stop:               stop,
		Scenario:           sc,
	})
	if err != nil {
		return err
	}

	fmt.Println("Figure 5 — object detection under per-layer random-FP32 neuron injection")
	fmt.Println("(YOLO-lite on synthetic scenes stands in for YOLOv3 on COCO)")
	if sc != nil {
		s := sc.Canon()
		fmt.Printf("(injected runs armed by scenario %s: %s error model, %s selector)\n",
			*scenarioPath, s.Fault.Error.Kind, s.Selector.Kind)
	}
	tb := report.NewTable("Mode", "Runs", "TP", "Phantoms", "Misclassified", "Missed", "Phantoms/run")
	tb.AddRow("clean", res.Scenes, res.CleanTP, res.CleanPhantoms, res.CleanMisclass, res.CleanMissed,
		float64(res.CleanPhantoms)/float64(res.Scenes))
	tb.AddRow("injected", res.InjectedRuns, res.FITP, res.FIPhantoms, res.FIMisclass, res.FIMissed,
		float64(res.FIPhantoms)/float64(res.InjectedRuns))
	tb.Render(os.Stdout)
	if stop.On() {
		if res.StopTrial >= 0 {
			fmt.Printf("\nearly stop: CI target ±%g reached at run %d (%d of %d budgeted runs saved)\n",
				stop.HalfWidth, res.StopTrial, *scenes**injections-res.StopTrial-1, *scenes**injections)
		} else {
			fmt.Printf("\nearly stop: CI target ±%g not reached within the %d-run budget\n",
				stop.HalfWidth, *scenes**injections)
		}
	}

	fmt.Println("\nExample scene (stand-in for Figure 5a/5b):")
	fmt.Printf("ground truth: %d object(s)\n", len(res.ExampleGT))
	for _, b := range res.ExampleGT {
		fmt.Printf("  gt   class=%d box=(%d,%d,%dx%d)\n", b.Class, b.X, b.Y, b.W, b.H)
	}
	fmt.Printf("clean inference: %d detection(s)\n", len(res.ExampleClean))
	for _, d := range res.ExampleClean {
		fmt.Printf("  det  class=%d conf=%.2f box=(%.0f,%.0f,%.0fx%.0f)\n", d.Class, d.Conf, d.X, d.Y, d.W, d.H)
	}
	fmt.Printf("injected inference: %d detection(s)\n", len(res.ExampleFI))
	for _, d := range res.ExampleFI {
		fmt.Printf("  det  class=%d conf=%.2f box=(%.0f,%.0f,%.0fx%.0f)\n", d.Class, d.Conf, d.X, d.Y, d.W, d.H)
	}
	return nil
}
