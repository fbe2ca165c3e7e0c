// Command gofi-layers produces a per-layer vulnerability profile: the
// Top-1 misclassification rate under injections confined to each layer in
// turn — the coarser-granularity resilience study §IV-A proposes for
// guiding low-cost selective protection.
//
// Usage:
//
//	gofi-layers [-model alexnet] [-trials N] [-granularity neuron|fmap]
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
		fmt.Fprintln(os.Stderr, "gofi-layers:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gofi-layers", flag.ContinueOnError)
	model := fs.String("model", "alexnet", "architecture to profile")
	trials := fs.Int("trials", 300, "injection trials per layer")
	epochs := fs.Int("epochs", 8, "training epochs before profiling")
	size := fs.Int("size", 32, "input image size")
	gran := fs.String("granularity", "neuron", "injection granularity: neuron (single bit flip) or fmap (whole map to U[-1,1))")
	seed := fs.Int64("seed", 1, "experiment seed")
	var stopFlags experiments.StopFlags
	stopFlags.AddFlags(fs, "each layer's campaign")
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
	g := experiments.GranNeuron
	switch *gran {
	case "neuron":
	case "fmap":
		g = experiments.GranFMap
	default:
		return experiments.UsageError(fs, "unknown granularity %q (want neuron or fmap)", *gran)
	}
	stop, err := stopFlags.Rule()
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}

	rows, err := experiments.RunLayerVuln(ctx, experiments.LayerVulnConfig{
		Model:          *model,
		TrialsPerLayer: *trials,
		TrainEpochs:    *epochs,
		InSize:         *size,
		Granularity:    g,
		Seed:           *seed,
		Metrics:        metrics,
		Stop:           stop,
	})
	if err != nil {
		return err
	}

	fmt.Printf("Per-layer vulnerability profile — %s, %s-granularity injections\n", *model, g)
	tb, addRow := experiments.StopTable(stop, "Layer", "Path", "Output", "Trials", "Mis", "Rate (%)", "99% CI (%)")
	for _, r := range rows {
		addRow(r.StopTrial, r.Layer, r.Path, fmt.Sprintf("%v", r.OutShape), r.Trials, r.Mis,
			100*r.Rate, fmt.Sprintf("[%.2f, %.2f]", 100*r.CILo, 100*r.CIHi))
	}
	tb.Render(os.Stdout)

	chart := &report.BarChart{Title: "\nTop-1 misclassification rate by injected layer", Unit: "%"}
	for _, r := range rows {
		chart.Add(fmt.Sprintf("L%d %s", r.Layer, r.Path), 100*r.Rate, "")
	}
	chart.Render(os.Stdout)
	return nil
}
