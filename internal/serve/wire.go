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

// ErrUnsupportedEstimator is wrapped by validation failures for specs
// requesting the stratified-sampling or fault-space-dedup estimators.
// Their estimates are not plain index-ordered folds, so sharded
// execution cannot yet reproduce them byte-for-byte; the wire format
// rejects them loudly rather than silently running the plain estimator.
var ErrUnsupportedEstimator = errors.New("serve: estimator not supported on the wire")

// Spec is the wire form of a campaign submission. The zero value of
// every optional field means "the gofi-campaign default", so a spec
// submitted with only {"v":1} runs exactly what a bare CLI invocation
// runs. Stratified sampling and fault-space dedup are deliberately not
// supported: their estimators are not plain index-ordered folds, so
// sharded execution cannot yet reproduce them byte-for-byte — Validate
// rejects the Stratify/Dedup fields with ErrUnsupportedEstimator.
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
	// bitflip, neuron, f32, int8 — the CLI's defaults).
	Error   string `json:"error,omitempty"`
	Scope   string `json:"scope,omitempty"`
	Backend string `json:"backend,omitempty"`
	DType   string `json:"dtype,omitempty"`
	// ActZeroPoint enables asymmetric input quantizers on the int8
	// backend.
	ActZeroPoint bool `json:"act_zp,omitempty"`
	// Shards is how many engine legs the campaign is split into
	// (default 1); Workers is each leg's worker count (default 4).
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
	// Stratify and Dedup mirror the CLI's -stratify/-dedup estimator
	// flags. The service does not support them (see ErrUnsupportedEstimator);
	// they exist on the wire so a submission asking for them fails loudly
	// instead of being silently decoded as an unknown-field error with no
	// explanation.
	Stratify bool `json:"stratify,omitempty"`
	Dedup    bool `json:"dedup,omitempty"`
	// Scenario embeds a declarative scenario (internal/scenario) as the
	// campaign's fault shape. When set, the scenario's model and fault
	// blocks own the fixture and fault model — the spec's
	// model/classes/size/epochs/noise/error/scope/backend/dtype/act_zp
	// fields must be left zero — and the scenario's run block provides
	// defaults for any unset run knobs here (the spec's knobs win).
	// Scenario observers are not in the wire format: the shard
	// coordinator folds aggregates only.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
}

// Canon fills defaults, returning the spec every zero-valued field
// resolved to the value gofi-campaign would use. With an embedded
// scenario the fixture/fault fields stay untouched (the scenario owns
// them; Validate rejects non-zero values) and the scenario's run block
// backfills any unset run knobs.
func (sp Spec) Canon() Spec {
	if sp.Scenario != nil {
		s := sp.Scenario.Canon()
		sp.Scenario = &s
		if sp.Seed == 0 {
			sp.Seed = s.Run.Seed
		}
		if sp.Trials <= 0 {
			sp.Trials = s.Run.Trials
		}
		if sp.Workers <= 0 {
			sp.Workers = s.Run.Workers
		}
		if s.Run.SkipErrors {
			sp.SkipErrors = true
		}
		if rule := s.Run.Stop.Rule(); sp.Stop().HalfWidth == 0 && rule.On() {
			sp.SetStop(rule)
		}
		if sp.Shards <= 0 {
			sp.Shards = 1
		}
		sp.canonStop()
		return sp
	}
	if sp.Model == "" {
		sp.Model = "resnet18"
	}
	if sp.Classes <= 0 {
		sp.Classes = 10
	}
	if sp.Size <= 0 {
		sp.Size = 32
	}
	if sp.Epochs <= 0 {
		sp.Epochs = 8
	}
	if sp.Noise == 0 {
		sp.Noise = 0.6
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Trials <= 0 {
		sp.Trials = 1000
	}
	if sp.Error == "" {
		sp.Error = "bitflip"
	}
	if sp.Scope == "" {
		sp.Scope = "neuron"
	}
	if sp.Backend == "" {
		sp.Backend = "f32"
	}
	if sp.DType == "" {
		sp.DType = "int8"
	}
	if sp.Shards <= 0 {
		sp.Shards = 1
	}
	if sp.Workers <= 0 {
		sp.Workers = 4
	}
	sp.canonStop()
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

// canonStop spells out the default confidence of a rule that is on, so
// the canonical spec a client reads back states the level it ran at.
func (sp *Spec) canonStop() {
	if rule := sp.Stop(); rule.On() && rule.Confidence == 0 {
		rule.Confidence = stats.DefaultConfidence
		sp.SetStop(rule)
	}
}

// Validate rejects specs that cannot run, mirroring the CLI's flag
// checks so a rejected submission would also have been a rejected
// command line. Call on a Canon()ed spec.
func (sp Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
	}
	if sp.V != WireVersion {
		return fmt.Errorf("%w: got %d, this build speaks %d", ErrWireVersion, sp.V, WireVersion)
	}
	if sp.Stratify {
		return fmt.Errorf("%w: stratified sampling's estimate is not an index-ordered fold; run -stratify locally", ErrUnsupportedEstimator)
	}
	if sp.Dedup {
		return fmt.Errorf("%w: fault-space dedup's canonical-outcome fills are not an index-ordered fold; run -dedup locally", ErrUnsupportedEstimator)
	}
	if sp.Scenario != nil {
		return sp.validateScenario()
	}
	em, err := experiments.ParseErrorModel(sp.Error)
	if err != nil {
		return bad("%v", err)
	}
	if _, err := experiments.ParseScope(sp.Scope, em); err != nil {
		return bad("%v", err)
	}
	dt, err := experiments.ParseDType(sp.DType)
	if err != nil {
		return bad("%v", err)
	}
	be, err := experiments.ParseBackend(sp.Backend)
	if err != nil {
		return bad("%v", err)
	}
	if be == "int8" && dt != core.INT8 {
		return bad("backend int8 implies dtype int8, got %q", sp.DType)
	}
	if sp.Trials <= 0 {
		return bad("trials must be positive, got %d", sp.Trials)
	}
	return sp.validateRunShape()
}

// validateScenario checks a spec whose fault shape is an embedded
// scenario. Call on a Canon()ed spec.
func (sp Spec) validateScenario() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
	}
	if sp.Model != "" || sp.Classes != 0 || sp.Size != 0 || sp.Epochs != 0 || sp.Noise != 0 ||
		sp.Error != "" || sp.Scope != "" || sp.Backend != "" || sp.DType != "" || sp.ActZeroPoint {
		return bad("a scenario owns the model fixture and fault shape; drop the spec's model/classes/size/epochs/noise/error/scope/backend/dtype/act_zp fields")
	}
	if err := sp.Scenario.Validate(); err != nil {
		return bad("%v", err)
	}
	if len(sp.Scenario.Observers) != 0 {
		return bad("scenario observers are not in the wire format: the shard coordinator folds aggregates only")
	}
	if sp.Trials <= 0 {
		// Only sweep scenarios canonicalize to a zero budget (it is filled
		// at compile time); the coordinator shards by trial range up front,
		// so the wire needs the count declared.
		return bad("sweep scenarios must declare run.trials (or the spec's trials) for service submission")
	}
	return sp.validateRunShape()
}

// validateRunShape checks the run knobs shared by plain and scenario
// specs.
func (sp Spec) validateRunShape() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
	}
	if sp.Shards < 1 {
		return bad("shards must be >= 1, got %d", sp.Shards)
	}
	if sp.Workers < 1 {
		return bad("workers must be >= 1, got %d", sp.Workers)
	}
	if err := sp.Stop().Validate(); err != nil {
		return bad("stop_ci/stop_conf/stop_min: %v", err)
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
		return Spec{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	sp = sp.Canon()
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Config translates the spec into the experiments-layer configuration
// the local CLI would build for the same flags. The Trials/Workers
// fields carry over directly; sharding stays the coordinator's business.
func (sp Spec) Config() (experiments.GenericCampaignConfig, error) {
	sp = sp.Canon()
	if err := sp.Validate(); err != nil {
		return experiments.GenericCampaignConfig{}, err
	}
	if sp.Scenario != nil {
		cfg, err := experiments.ScenarioConfig(*sp.Scenario)
		if err != nil {
			return experiments.GenericCampaignConfig{}, err
		}
		// The spec's (Canon-resolved) run knobs win over the scenario's
		// run block; neither changes which fault a trial index arms.
		cfg.Trials = sp.Trials
		cfg.Workers = sp.Workers
		cfg.Seed = sp.Seed
		cfg.OnError = campaign.FailFast
		if sp.SkipErrors {
			cfg.OnError = campaign.SkipAndCount
		}
		cfg.Stop = sp.Stop()
		return cfg, nil
	}
	em, _ := experiments.ParseErrorModel(sp.Error)
	arm, _ := experiments.ParseScope(sp.Scope, em)
	dt, _ := experiments.ParseDType(sp.DType)
	policy := campaign.FailFast
	if sp.SkipErrors {
		policy = campaign.SkipAndCount
	}
	return experiments.GenericCampaignConfig{
		Model:          sp.Model,
		Classes:        sp.Classes,
		InSize:         sp.Size,
		TrainEpochs:    sp.Epochs,
		Noise:          float32(sp.Noise),
		Trials:         sp.Trials,
		Workers:        sp.Workers,
		DType:          dt,
		Backend:        sp.Backend,
		ActZeroPoint:   sp.ActZeroPoint,
		Arm:            arm,
		IsolateWeights: sp.Scope == "weight",
		Seed:           sp.Seed,
		OnError:        policy,
		PrefixReuse:    true,
		Stop:           sp.Stop(),
	}, nil
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
