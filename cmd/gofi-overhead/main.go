// Command gofi-overhead regenerates the paper's Figure 3 (inference
// runtime with and without GoFI instrumentation across 19 networks and
// two execution backends), the §III-C batch-size sweep, and a
// per-layer hook-overhead breakdown. Timings are reported as
// min/p50/p99 over repeated runs, and -json emits the whole study as a
// machine-readable benchmark file.
//
// Usage:
//
//	gofi-overhead [-trials N] [-quick] [-batches] [-per-layer] [-json FILE]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"gofi/internal/experiments"
	"gofi/internal/models"
	"gofi/internal/obs"
	"gofi/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gofi-overhead:", err)
		os.Exit(1)
	}
}

// benchOutput is the -json document. Exactly one of the mode sections
// is populated per invocation.
type benchOutput struct {
	Kind     string                           `json:"kind"` // "fig3", "batch-sweep" or "per-layer"
	Trials   int                              `json:"trials"`
	Seed     int64                            `json:"seed"`
	Fig3     []experiments.Fig3Row            `json:"fig3,omitempty"`
	Batches  []experiments.BatchSweepRow      `json:"batch_sweep,omitempty"`
	PerLayer *experiments.LayerOverheadResult `json:"per_layer,omitempty"`
}

func writeBench(path string, out benchOutput) error {
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gofi-overhead: wrote %s\n", path)
	return nil
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gofi-overhead", flag.ContinueOnError)
	trials := fs.Int("trials", 5, "timed inferences per cell (percentiles need several)")
	quick := fs.Bool("quick", false, "run a 4-network subset instead of all 19")
	batches := fs.Bool("batches", false, "run the §III-C batch-size sweep instead of Figure 3")
	perLayer := fs.Bool("per-layer", false, "break hook overhead down per hooked layer instead of whole-network Figure 3")
	model := fs.String("model", "resnet18", "architecture for -batches / -per-layer")
	jsonOut := fs.String("json", "", "also write the results as machine-readable JSON to this file")
	seed := fs.Int64("seed", 1, "experiment seed")
	var mcli obs.CLI
	mcli.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, err := mcli.Start()
	if err != nil {
		return err
	}
	defer mcli.Finish()

	ms := func(sec float64) float64 { return 1000 * sec }

	if *perLayer {
		res, err := experiments.RunLayerOverhead(ctx, experiments.LayerOverheadConfig{
			Model:   *model,
			Trials:  *trials,
			Seed:    *seed,
			Metrics: reg,
		})
		if err != nil {
			return err
		}
		fmt.Printf("Per-layer hook overhead — %s, %d timed forwards per mode\n", res.Model, res.Trials)
		fmt.Println("(bare = timing hooks only; FI = timing + disarmed injection hooks; raw samples, passes alternated)")
		tb := report.NewTable("Layer", "Path", "Bare min (µs)", "FI min (µs)", "Δmin (µs)", "Bare p50 (µs)", "FI p50 (µs)", "Δp50 (µs)")
		for _, r := range res.Rows {
			tb.AddRow(r.Layer, r.Path, r.BareMinUs, r.FIMinUs, r.DeltaMinUs, r.BareP50Us, r.FIP50Us, r.DeltaP50Us)
		}
		tb.Render(os.Stdout)
		fmt.Printf("\nwhole network: bare p50 %.6fs (min %.6fs), FI p50 %.6fs — overhead %.3fms at p50\n",
			res.Bare.P50Sec, res.Bare.MinSec, res.FI.P50Sec, ms(res.OverheadP50Sec))
		fmt.Printf("heap traffic per forward: bare %d B/op (%d allocs/op), FI %d B/op (%d allocs/op)\n",
			res.BareAlloc.BytesPerOp, res.BareAlloc.AllocsPerOp,
			res.FIAlloc.BytesPerOp, res.FIAlloc.AllocsPerOp)
		fmt.Printf("int8 backend: bare forward p50 %.6fs (min %.6fs) — %.2fx f32 at p50\n",
			res.Int8.P50Sec, res.Int8.MinSec, res.Int8SpeedupP50)
		return writeBench(*jsonOut, benchOutput{Kind: "per-layer", Trials: *trials, Seed: *seed, PerLayer: &res})
	}

	if *batches {
		rows, err := experiments.RunBatchSweep(ctx, *model, 32, nil, *trials, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("§III-C batch-size sweep — %s, base vs. one armed injection\n", *model)
		tb := report.NewTable("Batch", "Base p50 (s)", "GoFI p50 (s)", "Δmean (s)", "Overhead/inf (ms)", "Base B/op", "GoFI B/op", "GoFI allocs/op")
		for _, r := range rows {
			tb.AddRow(r.Batch, r.Base.P50Sec, r.FI.P50Sec, r.Overhead, 1000*r.Overhead/float64(r.Batch),
				r.BaseAlloc.BytesPerOp, r.FIAlloc.BytesPerOp, r.FIAlloc.AllocsPerOp)
		}
		tb.Render(os.Stdout)
		return writeBench(*jsonOut, benchOutput{Kind: "batch-sweep", Trials: *trials, Seed: *seed, Batches: rows})
	}

	cfg := experiments.Fig3Config{Trials: *trials, Seed: *seed}
	if *quick {
		all := models.Fig3Registry()
		cfg.Entries = []models.Fig3Entry{all[0], all[5], all[12], all[18]}
	}
	rows, err := experiments.RunFig3(ctx, cfg)
	if err != nil {
		return err
	}

	fmt.Println("Figure 3 — inference runtime with and without GoFI (min/p50/p99 over repeated runs)")
	fmt.Println("(serial backend stands in for the paper's CPU, parallel for its GPU)")
	tb := report.NewTable("Dataset", "Network", "Backend",
		"Base min (s)", "Base p50 (s)", "GoFI p50 (s)", "GoFI p99 (s)", "Δp50 (ms)",
		"Base B/op", "GoFI B/op", "Allocs/op")
	for _, r := range rows {
		tb.AddRow(r.Dataset, r.Label, r.Backend,
			r.Base.MinSec, r.Base.P50Sec, r.FI.P50Sec, r.FI.P99Sec, ms(r.FI.P50Sec-r.Base.P50Sec),
			r.BaseAlloc.BytesPerOp, r.FIAlloc.BytesPerOp, r.FIAlloc.AllocsPerOp)
	}
	tb.Render(os.Stdout)

	chart := &report.BarChart{Title: "\nBase p50 runtime per network (serial backend)", Unit: "s"}
	for _, r := range rows {
		if r.Backend == "serial" {
			chart.Add(r.Dataset+"/"+r.Label, r.Base.P50Sec, fmt.Sprintf("+FI %.4gs", r.FI.P50Sec))
		}
	}
	chart.Render(os.Stdout)
	return writeBench(*jsonOut, benchOutput{Kind: "fig3", Trials: *trials, Seed: *seed, Fig3: rows})
}
