package experiments

// Flag-spelling parsers shared by the CLIs (gofi-campaign, gofi-serve)
// and the serve wire format, so one table defines each vocabulary and a
// campaign submitted over HTTP resolves to exactly the objects the local
// CLI would build.

import (
	"flag"
	"fmt"
	"math/rand"

	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/report"
)

// UsageError reports an invalid flag value or combination: it prints the
// error and fs's usage to fs's output and returns the error, so the
// command fails with a non-zero exit code.
func UsageError(fs *flag.FlagSet, format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	fs.Usage()
	return err
}

// StopFlags is the -stop-ci / -stop-conf / -stop-min flag family every
// study CLI offers: AddFlags registers the three flags, Rule turns the
// parsed values into the one stats.StopRule the configs carry.
type StopFlags struct {
	fs   *flag.FlagSet
	rule stats.StopRule
}

// AddFlags registers the flags on fs. unit names what one rule watches
// in the help text ("the campaign", "each bit's campaign", ...).
func (f *StopFlags) AddFlags(fs *flag.FlagSet, unit string) {
	f.fs = fs
	fs.Float64Var(&f.rule.HalfWidth, "stop-ci", 0, "halt "+unit+" once its corruption-rate confidence interval's half-width is at most this (rate units; 0.005 = ±0.5 percentage points); the trial budget then caps the run instead of fixing it; 0 disables early stopping")
	// An unset level stays zero in the rule, which every layer below reads
	// as the default, so the help text states the default itself.
	fs.Float64Var(&f.rule.Confidence, "stop-conf", 0, fmt.Sprintf("confidence level for -stop-ci, in (0,1) (default %g)", stats.DefaultConfidence))
	fs.IntVar(&f.rule.MinTrials, "stop-min", 0, fmt.Sprintf("observed trials required before -stop-ci may halt %s; 0 = default %d", unit, stats.DefaultMinTrials))
}

// Rule validates the parsed flags and returns their rule: off unless
// -stop-ci was given, and zero in every field the command line left
// unset.
func (f *StopFlags) Rule() (stats.StopRule, error) {
	zeroConf := false
	f.fs.Visit(func(fl *flag.Flag) { zeroConf = zeroConf || fl.Name == "stop-conf" && f.rule.Confidence == 0 })
	if zeroConf {
		// The rule reads 0 as "the default level"; on a command line it is
		// a mistyped level.
		return f.rule, fmt.Errorf("-stop-conf must be in (0,1), got 0")
	}
	if err := f.rule.Validate(); err != nil {
		return f.rule, fmt.Errorf("-stop-ci/-stop-conf/-stop-min: %w", err)
	}
	return f.rule, nil
}

// StopTable starts a result table with one row per campaign: when rule
// is on, the table gains a trailing "Stop@" column and addRow fills it
// with the trial index that campaign's rule fired on, or "budget" when
// it ran its whole budget (stopTrial < 0).
func StopTable(rule stats.StopRule, cols ...string) (tb *report.Table, addRow func(stopTrial int, cells ...any)) {
	if !rule.On() {
		tb = report.NewTable(cols...)
		return tb, func(_ int, cells ...any) { tb.AddRow(cells...) }
	}
	tb = report.NewTable(append(cols, "Stop@")...)
	return tb, func(stopTrial int, cells ...any) {
		if stopTrial < 0 {
			tb.AddRow(append(cells, "budget")...)
		} else {
			tb.AddRow(append(cells, stopTrial)...)
		}
	}
}

// ParseErrorModel resolves an -error flag spelling to its error model.
func ParseErrorModel(name string) (core.ErrorModel, error) {
	switch name {
	case "bitflip":
		return core.BitFlip{Bit: core.RandomBit}, nil
	case "bitflip2":
		return core.MultiBitFlip{N: 2}, nil
	case "random":
		return core.DefaultRandomValue(), nil
	case "zero":
		return core.Zero{}, nil
	case "gauss":
		return core.GaussianNoise{Std: 1}, nil
	case "gain":
		return core.Gain{Factor: 2}, nil
	case "stuck0":
		return core.StuckAt{Bit: core.RandomBit}, nil
	case "stuck1":
		return core.StuckAt{Bit: core.RandomBit, One: true}, nil
	default:
		return nil, fmt.Errorf("unknown error model %q", name)
	}
}

// ParseDType resolves a -dtype flag spelling.
func ParseDType(name string) (core.DType, error) {
	switch name {
	case "fp32":
		return core.FP32, nil
	case "fp16":
		return core.FP16, nil
	case "int8":
		return core.INT8, nil
	default:
		return 0, fmt.Errorf("unknown dtype %q", name)
	}
}

// armNeuron is the -scope neuron arming: one uniformly random neuron per
// trial, perturbed with em. Fig. 4 and the bit study arm with it too.
func armNeuron(em core.ErrorModel) ArmFunc {
	return func(inj *core.Injector, rng *rand.Rand) error {
		_, err := inj.InjectRandomNeuron(rng, em)
		return err
	}
}

// ParseScope resolves a -scope flag spelling to the ArmFunc that declares
// one trial's fault(s) under the given error model.
func ParseScope(name string, em core.ErrorModel) (ArmFunc, error) {
	switch name {
	case "neuron":
		return armNeuron(em), nil
	case "per-layer":
		return func(inj *core.Injector, rng *rand.Rand) error {
			_, err := inj.InjectRandomNeuronPerLayer(rng, em)
			return err
		}, nil
	case "fmap":
		return func(inj *core.Injector, rng *rand.Rand) error {
			_, _, err := inj.InjectRandomFMap(rng, em)
			return err
		}, nil
	case "weight":
		return func(inj *core.Injector, rng *rand.Rand) error {
			_, err := inj.InjectRandomWeight(rng, em)
			return err
		}, nil
	default:
		return nil, fmt.Errorf("unknown scope %q", name)
	}
}
