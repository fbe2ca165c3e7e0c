// Command gofi-campaign is the general-purpose injection-campaign driver:
// pick a model, an error model, an injection scope and a trial budget, and
// it trains the network on the synthetic dataset, runs the campaign in
// parallel, and reports corruption statistics with confidence intervals.
//
// Campaigns are deterministic in (seed, trials) regardless of -workers,
// cancellable with Ctrl-C (partial statistics are still reported), and can
// stream one JSON record per trial with -jsonl.
//
// Usage:
//
//	gofi-campaign -model resnet18 -error bitflip -scope neuron -trials 2000
//	gofi-campaign -model vgg19 -error random -scope per-layer -dtype fp16
//	gofi-campaign -trials 50000 -progress -jsonl trials.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/experiments"
	"gofi/internal/obs"
	"gofi/internal/report"
	"gofi/internal/scenario"
	"gofi/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gofi-campaign:", err)
		os.Exit(1)
	}
}

// withDefault states a flag's default in its help text the way the flag
// package would. The campaign flags register a zero default — an unset
// flag must leave its serve.Spec field unset — so the value shown is read
// from Spec.Canon, the one place the defaults are written.
func withDefault(usage string, def any) string {
	if s, ok := def.(string); ok {
		return fmt.Sprintf("%s (default %q)", usage, s)
	}
	return fmt.Sprintf("%s (default %v)", usage, def)
}

func run(ctx context.Context, args []string, out *os.File) error {
	fs := flag.NewFlagSet("gofi-campaign", flag.ContinueOnError)
	// Every campaign flag writes one field of the one serve.Spec that
	// describes the run; Spec.Canon fills what stays unset (from the
	// scenario's run block when there is one) and Spec.Validate checks it,
	// the same for a local run and for -submit.
	sp := serve.Spec{V: serve.WireVersion}
	def := sp.Canon()
	scenarioPath := fs.String("scenario", "", "run a declarative scenario file (YAML or JSON; see DESIGN.md §17 and examples/scenarios/): the file owns the model fixture and fault shape, so -model/-error/-scope/-dtype/-backend/-act-zp/-classes/-size/-epochs/-noise/-stratify/-dedup conflict with it; run knobs (-trials, -workers, -seed, ...) override the file's run block")
	fs.StringVar(&sp.Model, "model", "", withDefault("architecture (see gofi-info -list)", def.Model))
	fs.StringVar(&sp.Error, "error", "", withDefault("error model: bitflip, bitflip2, random, zero, gauss, gain, stuck0, stuck1", def.Error))
	fs.StringVar(&sp.Scope, "scope", "", withDefault("injection scope per trial: neuron, per-layer, fmap, weight", def.Scope))
	fs.StringVar(&sp.DType, "dtype", "", withDefault("emulated data type: fp32, fp16, int8", def.DType))
	fs.StringVar(&sp.Backend, "backend", "", withDefault("tensor execution backend: f32 runs float32 kernels with emulated precision; int8 quantizes the trained model and runs the campaign on the int8 GEMM/conv backend (implies -dtype int8, stored-code fault semantics)", def.Backend))
	fs.BoolVar(&sp.ActZeroPoint, "act-zp", false, "int8 backend: use asymmetric (zero-point) input quantizers for non-negative activations")
	fs.IntVar(&sp.Trials, "trials", 0, withDefault("injection trials", def.Trials))
	fs.IntVar(&sp.Workers, "workers", 0, withDefault("parallel campaign workers (throughput only; results depend on -seed and -trials alone)", def.Workers))
	fs.IntVar(&sp.Classes, "classes", 0, withDefault("dataset classes", def.Classes))
	fs.IntVar(&sp.Size, "size", 0, withDefault("input size", def.Size))
	fs.IntVar(&sp.Epochs, "epochs", 0, withDefault("training epochs before the campaign", def.Epochs))
	fs.Float64Var(&sp.Noise, "noise", 0, withDefault("dataset pixel-noise std", def.Noise))
	fs.Int64Var(&sp.Seed, "seed", 0, withDefault("experiment seed; 0 selects the default (the scenario file's seed with -scenario), as it does on the wire", def.Seed))
	progress := fs.Bool("progress", false, "print live trials/sec and ETA to stderr")
	jsonl := fs.String("jsonl", "", "stream one JSON record per trial to this file")
	fs.BoolVar(&sp.SkipErrors, "skip-errors", false, "count failing trials and continue instead of aborting the campaign")
	var stopFlags experiments.StopFlags
	stopFlags.AddFlags(fs, "the campaign")
	submit := fs.String("submit", "", "submit the campaign to a running gofi-serve at this base URL (e.g. http://127.0.0.1:8091) instead of executing locally; records stream back and the same summary is printed")
	fs.IntVar(&sp.Shards, "shards", 0, withDefault("with -submit: split the campaign into this many contiguous trial-range shards on the server (throughput only; results are byte-identical at any shard count)", def.Shards))
	fs.BoolVar(&sp.Stratify, "stratify", false, "stratified sampling over (layer, bit-position) strata with fixed-bit flips, merged by fault-space weight; requires -scope neuron (ignores -error: the strata fix the bits)")
	fs.BoolVar(&sp.Dedup, "dedup", false, "fault-space dedup: trials arming an identical (sample, site, bit) fault are computed once and multiplied in the aggregate; requires -scope neuron")
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

	// A zero field is how a spec says "unset", so a budget or shard count
	// spelled out as 0 would run the default; it stays the error it was.
	zero := ""
	fs.Visit(func(f *flag.Flag) {
		if (f.Name == "trials" || f.Name == "shards") && f.Value.String() == "0" {
			zero = f.Name
		}
	})
	if zero != "" {
		return experiments.UsageError(fs, "-%s must be positive, got 0", zero)
	}
	if sp.Shards > 1 && *submit == "" {
		return experiments.UsageError(fs, "-shards only applies to -submit mode; local runs already parallelize with -workers")
	}
	stop, err := stopFlags.Rule()
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	sp.SetStop(stop)
	if *scenarioPath != "" {
		sc, err := scenario.Load(*scenarioPath)
		if err != nil {
			return err
		}
		sp.Scenario = &sc
	}
	sp = sp.Canon()
	cfg, err := sp.Config()
	if err == nil && *submit != "" {
		err = sp.Validate() // adds what the wire cannot carry
	}
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	var sink *report.TrialJSONL
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = report.NewTrialJSONL(f)
	}

	// The one fork: either side yields a result (and a served campaign its
	// id and state for the header); everything after it is shared.
	var tag string
	var res experiments.GenericCampaignResult
	if *submit != "" {
		tag, res, err = runSubmit(ctx, *submit, sp, sink, *progress, out)
	} else {
		if sink != nil {
			cfg.Sinks = []campaign.TrialSink{sink}
		}
		if *progress {
			cfg.Progress = func(p campaign.Progress) {
				fmt.Fprintf(os.Stderr, "\r%d/%d trials  %.1f trials/s  ETA %s   ",
					p.Done, p.Total, p.TrialsPerSec, p.ETA.Round(time.Second))
			}
		}
		cfg.Metrics = metrics
		res, err = experiments.RunGenericCampaign(ctx, cfg)
	}
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	// A local run interrupted mid-campaign still reports what completed.
	aborted := *submit == "" && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if err != nil && !aborted {
		return err
	}

	if s := sp.Scenario; s != nil {
		name := s.Name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Fprintf(out, "GoFI campaign %s— scenario %s: %s, %s error model, %s scope + %s selector, %s (%s backend)\n",
			tag, name, s.Model.Arch, s.Fault.Error.Kind, s.Fault.Scope, s.Selector.Kind, s.Fault.DType, s.Fault.Backend)
	} else {
		fmt.Fprintf(out, "GoFI campaign %s— %s, %s error model, %s scope, %s (%s backend)\n",
			tag, sp.Model, sp.Error, sp.Scope, sp.DType, sp.Backend)
	}
	if aborted {
		fmt.Fprintf(out, "campaign aborted (%v) — partial statistics over %d completed trials\n",
			err, res.Aggregate.Trials)
	}
	fmt.Fprintf(out, "clean accuracy: %.1f%% (%d eligible inputs)\n", 100*res.CleanAcc, res.EligibleCount)
	agg := res.Aggregate
	lo, hi := agg.WilsonCI(campaign.Z99)
	tb := report.NewTable("Metric", "Value")
	tb.AddRow("Trials", agg.Trials)
	tb.AddRow("Top-1 misclassifications", agg.Top1Mis)
	tb.AddRow("Rate (%)", 100*agg.Rate())
	tb.AddRow("99% CI (%)", fmt.Sprintf("[%.3f, %.3f]", 100*lo, 100*hi))
	tb.AddRow("Clean Top-1 out of faulty Top-5", agg.OutOfTop5)
	tb.AddRow("Confidence drops > 0.2", agg.BigConfDrop)
	tb.AddRow("Non-finite outputs", agg.NonFinite)
	if agg.Skipped > 0 {
		tb.AddRow("Skipped (trial errors)", agg.Skipped)
	}
	if s := res.Stop; s != nil {
		if s.Trial >= 0 {
			tb.AddRow("Early stop at trial", s.Trial)
			tb.AddRow("Trials saved", s.Budget-s.Trial-1)
		} else {
			tb.AddRow("Early stop", "not reached (budget exhausted)")
		}
		tb.AddRow(fmt.Sprintf("Estimator %.0f%% CI (%%)", 100*s.Confidence),
			fmt.Sprintf("[%.3f, %.3f]", 100*s.Lo, 100*s.Hi))
		if s.Strata > 0 {
			tb.AddRow("Strata (layer x bit)", s.Strata)
			tb.AddRow("Min trials per stratum", s.MinStratum)
		}
	}
	tb.Render(out)
	if rep := res.Observers; rep != nil {
		if len(rep.SDC) > 0 {
			fmt.Fprintln(out, "\nPer-layer SDC (sdc observer)")
			ob := report.NewTable("Layer", "Path", "Trials", "SDC", "Rate (%)")
			for _, r := range rep.SDC {
				ob.AddRow(r.Layer, r.Path, r.Trials, r.SDC, 100*r.Rate)
			}
			ob.Render(out)
		}
		if len(rep.MSE) > 0 {
			fmt.Fprintln(out, "\nPer-layer activation MSE vs clean run (mse observer)")
			ob := report.NewTable("Layer", "Path", "Trials", "MSE")
			for _, r := range rep.MSE {
				ob.AddRow(r.Layer, r.Path, r.Trials, r.MSE)
			}
			ob.Render(out)
		}
	}
	if aborted {
		return fmt.Errorf("aborted: %w", err)
	}
	return nil
}

// runSubmit is the service side of the fork: post the spec to a
// gofi-serve instance, stream the index-ordered records back into the
// -jsonl sink, and hand back the campaign's id and state plus the result
// the summary is rendered from. A served -jsonl is index-ordered with
// worker 0; a local one is written in completion order with the real
// worker ids unless a stop rule is on — the two hold equal records per
// trial, not identical bytes. The campaign survives this client: Ctrl-C
// here leaves it running server-side, resumable and streamable later.
func runSubmit(ctx context.Context, base string, sp serve.Spec, sink *report.TrialJSONL, progress bool, out *os.File) (tag string, res experiments.GenericCampaignResult, err error) {
	cl := &serve.Client{Base: base}
	st, err := cl.Submit(ctx, sp)
	if err != nil {
		return "", res, err
	}
	fmt.Fprintf(out, "submitted campaign %s to %s (%d shard(s) x %d workers)\n", st.ID, base, sp.Shards, sp.Workers)

	var done *serve.Event
	err = cl.Stream(ctx, st.ID, 0, func(ev serve.Event) error {
		switch ev.Type {
		case "trial":
			if sink != nil && ev.Trial != nil {
				return sink.Record(*ev.Trial)
			}
		case "agg":
			if progress && ev.Agg != nil {
				fmt.Fprintf(os.Stderr, "\r%d trials  SDC %.2f%% [%.2f, %.2f]   ",
					ev.Agg.NextTrial, 100*ev.Agg.Rate, 100*ev.Agg.Lo, 100*ev.Agg.Hi)
			}
		case "done":
			e := ev
			done = &e
		case "error":
			return fmt.Errorf("campaign %s failed: %s", st.ID, ev.Err)
		}
		return nil
	})
	if err != nil {
		return "", res, err
	}
	if done == nil || done.Agg == nil {
		return "", res, fmt.Errorf("campaign %s: stream ended without a done event", st.ID)
	}
	fin, err := cl.Status(ctx, st.ID)
	if err != nil {
		return "", res, err
	}
	v := done.Agg
	res.CleanAcc, res.EligibleCount = fin.CleanAcc, fin.Eligible
	res.Aggregate = campaign.Aggregate{Trials: v.Trials, Top1Mis: v.Top1Mis, OutOfTop5: v.OutOfTop5,
		NonFinite: v.NonFinite, BigConfDrop: v.BigConfDrop, Skipped: v.Skipped}
	if rule := sp.Stop(); rule.On() {
		// The service runs the plain sequential rule, whose estimate is the
		// interval over the folded aggregate at the rule's level.
		ci := stats.Wilson(v.Top1Mis, v.Trials, rule.Confidence)
		res.Stop = &experiments.StopSummary{Trial: v.StopTrial, Budget: sp.Trials, Confidence: rule.Confidence,
			Rate: v.Rate, Lo: ci.Lo, Hi: ci.Hi}
	}
	return fmt.Sprintf("%s (%s) ", st.ID, done.State), res, nil
}
