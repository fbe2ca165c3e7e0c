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
	"gofi/internal/core"
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

func run(ctx context.Context, args []string, out *os.File) error {
	fs := flag.NewFlagSet("gofi-campaign", flag.ContinueOnError)
	scenarioPath := fs.String("scenario", "", "run a declarative scenario file (YAML or JSON; see DESIGN.md §17 and examples/scenarios/): the file owns the model fixture and fault shape, so -model/-error/-scope/-dtype/-backend/-act-zp/-classes/-size/-epochs/-noise/-stratify/-dedup conflict with it; run knobs (-trials, -workers, -seed, ...) override the file's run block")
	model := fs.String("model", "resnet18", "architecture (see gofi-info -list)")
	errModel := fs.String("error", "bitflip", "error model: bitflip, bitflip2, random, zero, gauss, gain, stuck0, stuck1")
	scope := fs.String("scope", "neuron", "injection scope per trial: neuron, per-layer, fmap, weight")
	dtype := fs.String("dtype", "int8", "emulated data type: fp32, fp16, int8")
	backend := fs.String("backend", "f32", "tensor execution backend: f32 runs float32 kernels with emulated precision; int8 quantizes the trained model and runs the campaign on the int8 GEMM/conv backend (implies -dtype int8, stored-code fault semantics)")
	actZP := fs.Bool("act-zp", false, "int8 backend: use asymmetric (zero-point) input quantizers for non-negative activations")
	trials := fs.Int("trials", 1000, "injection trials")
	workers := fs.Int("workers", 4, "parallel campaign workers (throughput only; results depend on -seed and -trials alone)")
	classes := fs.Int("classes", 10, "dataset classes")
	size := fs.Int("size", 32, "input size")
	epochs := fs.Int("epochs", 8, "training epochs before the campaign")
	noise := fs.Float64("noise", 0.6, "dataset pixel-noise std")
	seed := fs.Int64("seed", 1, "experiment seed")
	progress := fs.Bool("progress", false, "print live trials/sec and ETA to stderr")
	jsonl := fs.String("jsonl", "", "stream one JSON record per trial to this file")
	skipErrors := fs.Bool("skip-errors", false, "count failing trials and continue instead of aborting the campaign")
	var stopFlags experiments.StopFlags
	stopFlags.AddFlags(fs, "the campaign")
	submit := fs.String("submit", "", "submit the campaign to a running gofi-serve at this base URL (e.g. http://127.0.0.1:8091) instead of executing locally; records stream back and the same summary is printed")
	shards := fs.Int("shards", 1, "with -submit: split the campaign into this many contiguous trial-range shards on the server (throughput only; results are byte-identical at any shard count)")
	stratify := fs.Bool("stratify", false, "stratified sampling over (layer, bit-position) strata with fixed-bit flips, merged by fault-space weight; requires -scope neuron (ignores -error: the strata fix the bits)")
	dedup := fs.Bool("dedup", false, "fault-space dedup: trials arming an identical (sample, site, bit) fault are computed once and multiplied in the aggregate; requires -scope neuron")
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

	visited := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { visited[f.Name] = true })
	var sc *scenario.Scenario
	if *scenarioPath != "" {
		for _, name := range []string{"model", "error", "scope", "dtype", "backend", "act-zp", "classes", "size", "epochs", "noise", "stratify", "dedup"} {
			if visited[name] {
				return experiments.UsageError(fs, "-%s conflicts with -scenario: the scenario file owns the model fixture and fault shape", name)
			}
		}
		loaded, err := scenario.Load(*scenarioPath)
		if err != nil {
			return err
		}
		sc = &loaded
	}

	em, err := experiments.ParseErrorModel(*errModel)
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	dt, err := experiments.ParseDType(*dtype)
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	be, err := experiments.ParseBackend(*backend)
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	if be == "int8" && dt != core.INT8 {
		return experiments.UsageError(fs, "-backend int8 implies -dtype int8, got %q", *dtype)
	}
	arm, err := experiments.ParseScope(*scope, em)
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	if *trials <= 0 {
		return experiments.UsageError(fs, "-trials must be positive, got %d", *trials)
	}
	if *workers < 0 {
		return experiments.UsageError(fs, "-workers must be non-negative, got %d", *workers)
	}
	stop, err := stopFlags.Rule()
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}
	if (*stratify || *dedup) && *scope != "neuron" {
		return experiments.UsageError(fs, "-stratify/-dedup cover single-neuron faults only; use -scope neuron, not %q", *scope)
	}
	if *stratify && *errModel != "bitflip" {
		return experiments.UsageError(fs, "-stratify arms fixed-bit flips by stratum and so requires -error bitflip, not %q", *errModel)
	}
	if *shards < 1 {
		return experiments.UsageError(fs, "-shards must be >= 1, got %d", *shards)
	}
	if *shards > 1 && *submit == "" {
		return experiments.UsageError(fs, "-shards only applies to -submit mode; local runs already parallelize with -workers")
	}
	if *submit != "" {
		if *stratify || *dedup {
			return experiments.UsageError(fs, "-stratify/-dedup are not in the service wire format; run them locally")
		}
		if sc != nil {
			sp := serve.Spec{V: serve.WireVersion, Scenario: sc, Shards: *shards}
			// Only explicitly-set run knobs go on the wire; the server
			// backfills the rest from the scenario's run block.
			if visited["trials"] {
				sp.Trials = *trials
			}
			if visited["workers"] {
				sp.Workers = *workers
			}
			if visited["seed"] {
				sp.Seed = *seed
			}
			if visited["skip-errors"] {
				sp.SkipErrors = *skipErrors
			}
			if visited["stop-ci"] {
				sp.SetStop(stop)
			}
			return runSubmit(ctx, *submit, sp, *jsonl, *progress, out)
		}
		sp := serve.Spec{
			V:            serve.WireVersion,
			Model:        *model,
			Classes:      *classes,
			Size:         *size,
			Epochs:       *epochs,
			Noise:        *noise,
			Seed:         *seed,
			Trials:       *trials,
			Error:        *errModel,
			Scope:        *scope,
			Backend:      *backend,
			DType:        *dtype,
			ActZeroPoint: *actZP,
			Shards:       *shards,
			Workers:      *workers,
			SkipErrors:   *skipErrors,
		}
		sp.SetStop(stop)
		return runSubmit(ctx, *submit, sp, *jsonl, *progress, out)
	}

	var sinks []campaign.TrialSink
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			return err
		}
		defer f.Close()
		sinks = append(sinks, report.NewTrialJSONL(f))
	}
	var progressFn func(campaign.Progress)
	if *progress {
		progressFn = func(p campaign.Progress) {
			fmt.Fprintf(os.Stderr, "\r%d/%d trials  %.1f trials/s  ETA %s   ",
				p.Done, p.Total, p.TrialsPerSec, p.ETA.Round(time.Second))
		}
	}
	policy := campaign.FailFast
	if *skipErrors {
		policy = campaign.SkipAndCount
	}

	var gcfg experiments.GenericCampaignConfig
	if sc != nil {
		gcfg, err = experiments.ScenarioConfig(*sc)
		if err != nil {
			return err
		}
		// Explicit run-knob flags override the scenario's run block; none
		// of them change which fault a trial index arms.
		if visited["trials"] {
			gcfg.Trials = *trials
		}
		if visited["workers"] {
			gcfg.Workers = *workers
		}
		if visited["seed"] {
			gcfg.Seed = *seed
		}
		if visited["skip-errors"] {
			gcfg.OnError = policy
		}
		if visited["stop-ci"] || visited["stop-conf"] || visited["stop-min"] {
			gcfg.Stop = stop
		}
		gcfg.Sinks, gcfg.Progress, gcfg.Metrics = sinks, progressFn, metrics
	} else {
		gcfg = experiments.GenericCampaignConfig{
			Model:          *model,
			Classes:        *classes,
			InSize:         *size,
			TrainEpochs:    *epochs,
			Noise:          float32(*noise),
			Trials:         *trials,
			Workers:        *workers,
			DType:          dt,
			Backend:        be,
			ActZeroPoint:   *actZP,
			Arm:            arm,
			IsolateWeights: *scope == "weight",
			Seed:           *seed,
			Sinks:          sinks,
			Progress:       progressFn,
			OnError:        policy,
			Metrics:        metrics,
			PrefixReuse:    true,
			Stop:           stop,
			Stratify:       *stratify,
			Dedup:          *dedup,
		}
		if *stratify || *dedup {
			// The generator owns fault declaration; hand it the error model
			// instead of the Arm closure.
			gcfg.Arm = nil
			gcfg.ErrorModel = em
		}
	}
	res, err := experiments.RunGenericCampaign(ctx, gcfg)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	aborted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if err != nil && !aborted {
		return err
	}

	if s := gcfg.Scenario; s != nil {
		label := s.Name
		if label == "" {
			label = *scenarioPath
		}
		fmt.Fprintf(out, "GoFI campaign — scenario %s: %s, %s error model, %s scope + %s selector, %s (%s backend)\n",
			label, s.Model.Arch, s.Fault.Error.Kind, s.Fault.Scope, s.Selector.Kind, s.Fault.DType, s.Fault.Backend)
	} else {
		fmt.Fprintf(out, "GoFI campaign — %s, %s error model, %s scope, %s (%s backend)\n", *model, em.Name(), *scope, dt, be)
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

// runSubmit drives service mode: ship the spec to a gofi-serve instance,
// stream the index-ordered records back (optionally into the -jsonl
// file, byte-identical to a local run's), and print the same summary
// table the local path prints. The campaign survives this client: Ctrl-C
// here leaves it running server-side, resumable and streamable later.
func runSubmit(ctx context.Context, base string, sp serve.Spec, jsonl string, progress bool, out *os.File) error {
	cl := &serve.Client{Base: base}
	st, err := cl.Submit(ctx, sp)
	if err != nil {
		return err
	}
	canon := st.Spec
	fmt.Fprintf(out, "submitted campaign %s to %s (%d shard(s) x %d workers)\n",
		st.ID, base, canon.Shards, canon.Workers)

	var sink *report.TrialJSONL
	if jsonl != "" {
		f, err := os.Create(jsonl)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = report.NewTrialJSONL(f)
	}
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
	if progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	if done == nil || done.Agg == nil {
		return fmt.Errorf("campaign %s: stream ended without a done event", st.ID)
	}
	fin, err := cl.Status(ctx, st.ID)
	if err != nil {
		return err
	}

	agg := done.Agg
	if s := canon.Scenario; s != nil {
		label := s.Name
		if label == "" {
			label = "(unnamed)"
		}
		fmt.Fprintf(out, "GoFI campaign %s (%s) — scenario %s: %s, %s error model, %s scope, %s (%s backend)\n",
			st.ID, done.State, label, s.Model.Arch, s.Fault.Error.Kind, s.Fault.Scope, s.Fault.DType, s.Fault.Backend)
	} else {
		fmt.Fprintf(out, "GoFI campaign %s (%s) — %s, %s error model, %s scope, %s (%s backend)\n",
			st.ID, done.State, canon.Model, canon.Error, canon.Scope, canon.DType, canon.Backend)
	}
	fmt.Fprintf(out, "clean accuracy: %.1f%% (%d eligible inputs)\n", 100*fin.CleanAcc, fin.Eligible)
	tb := report.NewTable("Metric", "Value")
	tb.AddRow("Trials", agg.Trials)
	tb.AddRow("Top-1 misclassifications", agg.Top1Mis)
	tb.AddRow("Rate (%)", 100*agg.Rate)
	tb.AddRow("99% CI (%)", fmt.Sprintf("[%.3f, %.3f]", 100*agg.Lo, 100*agg.Hi))
	tb.AddRow("Clean Top-1 out of faulty Top-5", agg.OutOfTop5)
	tb.AddRow("Confidence drops > 0.2", agg.BigConfDrop)
	tb.AddRow("Non-finite outputs", agg.NonFinite)
	if agg.Skipped > 0 {
		tb.AddRow("Skipped (trial errors)", agg.Skipped)
	}
	if canon.Stop().On() {
		if agg.StopTrial >= 0 {
			tb.AddRow("Early stop at trial", agg.StopTrial)
			tb.AddRow("Trials saved", canon.Trials-agg.StopTrial-1)
		} else {
			tb.AddRow("Early stop", "not reached (budget exhausted)")
		}
	}
	tb.Render(out)
	return nil
}
