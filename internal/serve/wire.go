// Package serve implements the gofi campaign service: a long-running
// HTTP/JSON server that accepts campaign specifications, shards each
// campaign by trial-index range across a pool of engine workers, merges
// the shards' records back together in global index order, and streams
// per-trial records plus live Wilson-interval aggregates to any number
// of clients over chunked JSONL.
//
// The determinism contract carries over from the engine wholesale:
// every trial's randomness is a pure function of (campaign seed, global
// trial index), and the coordinator folds records in strict index order
// — performing exactly the float additions a single-machine run
// performs — so a campaign's final aggregate, its early-stop index and
// its record stream are byte-identical at ANY shard count, across
// pause/resume cycles, and across server crashes (durable checkpoints
// via internal/serialize make a killed node lose nothing). The test
// wall pins all three against the repo's committed golden fixtures.
package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/experiments"
	"gofi/internal/scenario"
)

// WireVersion is the campaign-spec wire version this build speaks.
const WireVersion = 1

// ErrWireVersion is wrapped by DecodeSpec errors for specs written under
// an unknown wire version; gate on it with errors.Is.
var ErrWireVersion = errors.New("serve: unsupported wire version")

// ErrSpec is wrapped by spec validation failures.
var ErrSpec = errors.New("serve: invalid campaign spec")

// ErrUnsupportedEstimator is wrapped (next to ErrSpec) by validation
// failures for specs requesting the stratified-sampling or
// fault-space-dedup estimators; see Spec.offWire.
var ErrUnsupportedEstimator = errors.New("serve: estimator not supported on the wire")

// Spec is the one description of a campaign: gofi-campaign fills one from
// its flags and runs it locally (Config) or posts it (Client.Submit), and
// the service stores it in its checkpoints. The zero value of every
// optional field means "unset", and Canon resolves it, so a spec
// submitted with only {"v":1} runs exactly what a bare CLI invocation
// runs. A few things a spec can say only run locally; offWire lists them.
// Validation bounds what one spec can cost: at most maxTrials (10⁸)
// trials, maxWorkers (256) workers per leg and maxShards (256) shards,
// each run in legs of at most maxLegTrials (2¹⁶) trials.
type Spec struct {
	// V is the wire version; must equal WireVersion.
	V int `json:"v"`
	// Model, Classes, Size, Epochs, Noise and Seed pin the trained model
	// fixture (defaults: resnet18, 10, 32, 8, 0.6, 1).
	Model   string  `json:"model,omitempty"`
	Classes int     `json:"classes,omitempty"`
	Size    int     `json:"size,omitempty"`
	Epochs  int     `json:"epochs,omitempty"`
	Noise   float64 `json:"noise,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// Trials is the trial budget (default 1000).
	Trials int `json:"trials,omitempty"`
	// Error, Scope, Backend and DType select the fault model (defaults:
	// bitflip, neuron, f32, int8).
	Error   string `json:"error,omitempty"`
	Scope   string `json:"scope,omitempty"`
	Backend string `json:"backend,omitempty"`
	DType   string `json:"dtype,omitempty"`
	// ActZeroPoint enables asymmetric input quantizers on the int8
	// backend.
	ActZeroPoint bool `json:"act_zp,omitempty"`
	// Shards is how many engine legs the service splits the campaign into
	// (default 1; a local run has one leg); Workers is each leg's worker
	// count (default 4).
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	// SkipErrors counts failing trials instead of aborting.
	SkipErrors bool `json:"skip_errors,omitempty"`
	// The three stop fields attach the sequential early-stopping rule (see
	// the -stop-ci flag family); stop_ci 0 disables it. Read them through
	// Stop.
	StopCI   float64 `json:"stop_ci,omitempty"`
	StopConf float64 `json:"stop_conf,omitempty"`
	StopMin  int     `json:"stop_min,omitempty"`
	// Stratify and Dedup are the -stratify/-dedup estimators: stratified
	// fixed-bit flips over (layer, bit) strata, and computing trials that
	// arm an identical fault once. Both need neuron scope, and Stratify
	// the bitflip error model. Local runs only (see offWire).
	Stratify bool `json:"stratify,omitempty"`
	Dedup    bool `json:"dedup,omitempty"`
	// Scenario embeds a declarative scenario (internal/scenario) as the
	// campaign's fault shape. When set, the scenario's model and fault
	// blocks own the fixture and fault model — the spec's
	// model/classes/size/epochs/noise/error/scope/backend/dtype/act_zp/
	// stratify/dedup fields must be left zero — and the scenario's run
	// block fills every run knob the spec leaves unset (see Canon).
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
}

// Canon resolves every unset (zero) field, and is the only place a
// default or a precedence rule is written: without a scenario the
// defaults are gofi-campaign's; with one the fixture/fault fields stay
// zero (the scenario owns them) and each run knob the spec leaves unset
// takes the value of the scenario's run block — the spec's knobs win,
// field by field, stop_ci, stop_conf and stop_min included. Negative
// values are not "unset"; they stay for Validate to reject.
func (sp Spec) Canon() Spec {
	if sp.Scenario != nil {
		s := sp.Scenario.Canon()
		sp.Scenario = &s
		stop := s.Run.Stop.Rule()
		sp.Seed = cmp.Or(sp.Seed, s.Run.Seed)
		sp.Trials = cmp.Or(sp.Trials, s.Run.Trials)
		sp.Workers = cmp.Or(sp.Workers, s.Run.Workers)
		sp.SkipErrors = sp.SkipErrors || s.Run.SkipErrors
		sp.StopCI = cmp.Or(sp.StopCI, stop.HalfWidth)
		sp.StopConf = cmp.Or(sp.StopConf, stop.Confidence)
		sp.StopMin = cmp.Or(sp.StopMin, stop.MinTrials)
	} else {
		sp.Model = cmp.Or(sp.Model, "resnet18")
		sp.Classes = cmp.Or(sp.Classes, 10)
		sp.Size = cmp.Or(sp.Size, 32)
		sp.Epochs = cmp.Or(sp.Epochs, 8)
		sp.Noise = cmp.Or(sp.Noise, 0.6)
		sp.Seed = cmp.Or(sp.Seed, 1)
		sp.Trials = cmp.Or(sp.Trials, 1000)
		sp.Error = cmp.Or(sp.Error, "bitflip")
		sp.Scope = cmp.Or(sp.Scope, "neuron")
		sp.Backend = cmp.Or(sp.Backend, "f32")
		sp.DType = cmp.Or(sp.DType, "int8")
		sp.Workers = cmp.Or(sp.Workers, 4)
	}
	sp.Shards = cmp.Or(sp.Shards, 1)
	if sp.StopCI > 0 {
		// Spell out the level of a rule that is on, so the canonical spec
		// a client reads back states the level it ran at.
		sp.StopConf = cmp.Or(sp.StopConf, stats.DefaultConfidence)
	}
	return sp
}

// Stop is the spec's stopping rule (off when stop_ci is 0). Stop and
// SetStop are the one conversion between the three wire fields and the
// stats.StopRule every layer below the wire carries.
func (sp Spec) Stop() stats.StopRule {
	return stats.StopRule{HalfWidth: sp.StopCI, Confidence: sp.StopConf, MinTrials: sp.StopMin}
}

// SetStop writes rule into the spec's three wire fields.
func (sp *Spec) SetStop(rule stats.StopRule) {
	sp.StopCI, sp.StopConf, sp.StopMin = rule.HalfWidth, rule.Confidence, rule.MinTrials
}

// The upper bounds runnable enforces (see Spec).
const (
	maxTrials  = 100_000_000
	maxWorkers = 256
	maxShards  = 256
)

func badSpec(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
}

// Validate is the check at the service's door — DecodeSpec, a restored
// checkpoint and Server.Submit all pass through it: the spec must be
// runnable and must ask for nothing the wire cannot carry. Call on a
// Canon()ed spec.
func (sp Spec) Validate() error {
	if err := sp.offWire(); err != nil {
		return err
	}
	return sp.runnable()
}

// offWire is the one list of what a spec can describe but the service
// cannot run; a local run (Config) takes all of it.
func (sp Spec) offWire() error {
	switch {
	case sp.Stratify:
		// The coordinator re-folds shard records in plain index order, which
		// reproduces neither estimator byte for byte.
		return fmt.Errorf("%w: %w: stratified sampling's estimate is not an index-ordered fold; run -stratify locally", ErrSpec, ErrUnsupportedEstimator)
	case sp.Dedup:
		return fmt.Errorf("%w: %w: fault-space dedup's canonical-outcome fills are not an index-ordered fold; run -dedup locally", ErrSpec, ErrUnsupportedEstimator)
	case sp.Scenario != nil && len(sp.Scenario.Observers) != 0:
		return badSpec("scenario observers are not in the wire format: the shard coordinator folds aggregates only; run them locally")
	case sp.Scenario != nil && sp.Trials == 0:
		// Only a sweep canonicalizes to a zero budget (its enumeration size,
		// known once the fixture is profiled); the coordinator splits the
		// trial range before that.
		return badSpec("sweep scenarios must declare run.trials (or the spec's trials) for service submission")
	}
	return nil
}

// runnable is the one fixture/fault/run check, shared by local runs and
// the service. Call on a Canon()ed spec.
func (sp Spec) runnable() error {
	if sp.V != WireVersion {
		return fmt.Errorf("%w: got %d, this build speaks %d", ErrWireVersion, sp.V, WireVersion)
	}
	if sp.Scenario != nil {
		if sp.Model != "" || sp.Classes != 0 || sp.Size != 0 || sp.Epochs != 0 || sp.Noise != 0 || sp.Error != "" ||
			sp.Scope != "" || sp.Backend != "" || sp.DType != "" || sp.ActZeroPoint || sp.Stratify || sp.Dedup {
			return badSpec("a scenario owns the model fixture and fault shape; drop model/classes/size/epochs/noise/error/scope/backend/dtype/act_zp/stratify/dedup")
		}
		if err := sp.Scenario.Validate(); err != nil {
			return badSpec("%v", err)
		}
	} else {
		if sp.Classes < 0 || sp.Size < 0 || sp.Epochs < 0 || !(sp.Noise >= 0) {
			return badSpec("classes/size/epochs/noise must not be negative, got %d/%d/%d/%g", sp.Classes, sp.Size, sp.Epochs, sp.Noise)
		}
		em, err := experiments.ParseErrorModel(sp.Error)
		if err != nil {
			return badSpec("%v", err)
		}
		if _, err := experiments.ParseScope(sp.Scope, em); err != nil {
			return badSpec("%v", err)
		}
		dt, err := experiments.ParseDType(sp.DType)
		if err != nil {
			return badSpec("%v", err)
		}
		be, err := experiments.ParseBackend(sp.Backend)
		if err != nil {
			return badSpec("%v", err)
		}
		if be == "int8" && dt != core.INT8 {
			return badSpec("backend int8 implies dtype int8, got %q", sp.DType)
		}
		if (sp.Stratify || sp.Dedup) && sp.Scope != "neuron" {
			return badSpec("stratify/dedup cover single-neuron faults only; use scope neuron, not %q", sp.Scope)
		}
		if sp.Stratify && sp.Error != "bitflip" {
			return badSpec("stratify arms fixed-bit flips by stratum and so requires error bitflip, not %q", sp.Error)
		}
	}
	if sp.Trials < 0 || sp.Trials > maxTrials {
		// Canon left 0 only to a sweep scenario, whose budget is its
		// enumeration size.
		return badSpec("trials must be positive and at most %d, got %d", maxTrials, sp.Trials)
	}
	if sp.Shards < 1 || sp.Shards > maxShards {
		return badSpec("shards must be >= 1 and <= %d, got %d", maxShards, sp.Shards)
	}
	if sp.Workers < 1 || sp.Workers > maxWorkers {
		return badSpec("workers must be >= 1 and <= %d, got %d", maxWorkers, sp.Workers)
	}
	if err := sp.Stop().Validate(); err != nil {
		return badSpec("stop_ci/stop_conf/stop_min: %v", err)
	}
	return nil
}

// DecodeSpec reads one spec from r, rejecting unknown fields (a typo in
// a field name should fail loudly, not silently run the default), and
// returns it canonicalized and validated. Corrupt input returns an
// error, never a panic.
func DecodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, badSpec("%v", err)
	}
	sp = sp.Canon()
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Config lowers the spec to the experiments-layer configuration — the
// one producer of a campaign config from user input, for a local run and
// for the service's fixture alike. Process-local taps (sinks, progress,
// metrics) are the caller's to add; sharding stays the coordinator's
// business.
func (sp Spec) Config() (experiments.GenericCampaignConfig, error) {
	sp = sp.Canon()
	if err := sp.runnable(); err != nil {
		return experiments.GenericCampaignConfig{}, err
	}
	cfg := experiments.GenericCampaignConfig{
		Trials:      sp.Trials,
		Workers:     sp.Workers,
		Seed:        sp.Seed,
		PrefixReuse: true,
		Stop:        sp.Stop(),
		Stratify:    sp.Stratify,
		Dedup:       sp.Dedup,
		Scenario:    sp.Scenario,
	}
	if sp.SkipErrors {
		cfg.OnError = campaign.SkipAndCount
	}
	if sp.Scenario != nil {
		// Prepare derives the fixture and fault fields from the scenario.
		return cfg, nil
	}
	em, _ := experiments.ParseErrorModel(sp.Error)
	cfg.Model, cfg.Classes, cfg.InSize = sp.Model, sp.Classes, sp.Size
	cfg.TrainEpochs, cfg.Noise = sp.Epochs, float32(sp.Noise)
	cfg.DType, _ = experiments.ParseDType(sp.DType)
	cfg.Backend, cfg.ActZeroPoint = sp.Backend, sp.ActZeroPoint
	cfg.IsolateWeights = sp.Scope == "weight"
	if sp.Stratify || sp.Dedup {
		// The generator owns fault declaration and arms em itself.
		cfg.ErrorModel = em
	} else {
		cfg.Arm, _ = experiments.ParseScope(sp.Scope, em)
	}
	return cfg, nil
}

// envKey is the fixture-cache key: every spec field that affects the
// prepared environment (trained weights, replica geometry, generator
// wiring) and none that only affect a run (trial budget, sharding,
// stopping rule). Two campaigns with equal keys share one trained
// fixture.
func (sp Spec) envKey() string {
	sp = sp.Canon()
	sp.Trials, sp.Shards, sp.Workers = 0, 0, 0
	sp.SetStop(stats.StopRule{})
	if sp.Scenario != nil {
		// Mirror the zeroing inside the scenario's run block (its other
		// run knobs were already copied to the top level by Canon).
		s := *sp.Scenario
		s.Run.Trials, s.Run.Workers = 0, 0
		s.Run.Stop = scenario.StopSpec{}
		sp.Scenario = &s
	}
	raw, _ := json.Marshal(sp)
	return string(raw)
}

// Campaign lifecycle states.
const (
	StatePending   = "pending"   // accepted, waiting for a slot
	StateTraining  = "training"  // preparing the model fixture
	StateRunning   = "running"   // engine legs executing
	StatePaused    = "paused"    // checkpointed, resumable
	StateDone      = "done"      // completed (budget or stop rule)
	StateCancelled = "cancelled" // terminally cancelled by a client
	StateFailed    = "failed"    // a trial or the fixture failed
)

// terminalState reports whether a campaign in state s will never run
// again.
func terminalState(s string) bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// AggView is the wire form of a live aggregate: the fold counters plus
// the derived SDC rate and its Wilson interval at 99% confidence (the
// same interval the CLI table prints).
type AggView struct {
	Trials      int     `json:"trials"`
	Top1Mis     int     `json:"top1_mis"`
	OutOfTop5   int     `json:"out_of_top5"`
	NonFinite   int     `json:"non_finite"`
	BigConfDrop int     `json:"big_conf_drop"`
	Skipped     int     `json:"skipped"`
	Rate        float64 `json:"rate"`
	Lo          float64 `json:"lo"`
	Hi          float64 `json:"hi"`
	// NextTrial is the coordinator's fold frontier (trials folded so
	// far); StopTrial the global index the stopping rule fired on (-1:
	// not fired).
	NextTrial int `json:"next_trial"`
	StopTrial int `json:"stop_trial"`
}

// viewOf renders an aggregate at a fold frontier.
func viewOf(agg campaign.Aggregate, next, stopTrial int) AggView {
	lo, hi := agg.WilsonCI(campaign.Z99)
	return AggView{
		Trials:      agg.Trials,
		Top1Mis:     agg.Top1Mis,
		OutOfTop5:   agg.OutOfTop5,
		NonFinite:   agg.NonFinite,
		BigConfDrop: agg.BigConfDrop,
		Skipped:     agg.Skipped,
		Rate:        agg.Rate(),
		Lo:          lo,
		Hi:          hi,
		NextTrial:   next,
		StopTrial:   stopTrial,
	}
}

// Status is the wire form of one campaign's state, returned by the
// submit, get, list and lifecycle endpoints.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Spec  Spec   `json:"spec"`
	// CleanAcc and Eligible describe the trained fixture (zero until
	// training completes).
	CleanAcc float64 `json:"clean_acc,omitempty"`
	Eligible int     `json:"eligible,omitempty"`
	Agg      AggView `json:"agg"`
	Err      string  `json:"error,omitempty"`
}

// Event is one line of a campaign's chunked-JSONL stream.
type Event struct {
	// Type is one of "hello", "trial", "agg", "state", "done", "error".
	Type string `json:"type"`
	// Campaign is the campaign ID (hello events only).
	Campaign string `json:"campaign,omitempty"`
	// Trial carries one index-ordered record (trial events). Worker is
	// always 0 on the wire: worker attribution depends on work-stealing
	// timing, and the stream is part of the byte-identity contract.
	Trial *campaign.TrialRecord `json:"trial,omitempty"`
	// Agg carries a live aggregate (hello, agg and done events).
	Agg *AggView `json:"agg,omitempty"`
	// State carries the campaign state (hello, state and done events).
	State string `json:"state,omitempty"`
	// Err carries the failure message (error events).
	Err string `json:"error,omitempty"`
}

// DecodeEvent parses one stream line.
func DecodeEvent(line []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return Event{}, fmt.Errorf("serve: bad stream line %q: %v", truncate(string(line), 80), err)
	}
	return ev, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return strings.ToValidUTF8(s[:n], "") + "..."
}
