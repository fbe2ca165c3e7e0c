package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/scenario"
	"gofi/internal/serialize"
)

// wireScenario is a small valid scenario for wire tests (no observers:
// the wire format rejects them).
func wireScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:  "wire",
		Model: scenario.ModelSpec{Arch: "alexnet", Classes: 4, InSize: 16, Epochs: 6},
		Run:   scenario.RunSpec{Trials: 40, Seed: 11, Workers: 2},
	}
}

func scenarioSpec() Spec {
	return Spec{V: WireVersion, Scenario: wireScenario()}
}

func TestSpecRejectsEstimators(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*Spec)
	}{
		{"stratify", func(sp *Spec) { sp.Stratify = true }},
		{"dedup", func(sp *Spec) { sp.Dedup = true }},
	} {
		sp := baseSpec().Canon()
		c.mut(&sp)
		err := sp.Validate()
		if !errors.Is(err, ErrUnsupportedEstimator) {
			t.Errorf("%s: Validate() = %v, want errors.Is(ErrUnsupportedEstimator)", c.name, err)
		}
		// The rejection also applies with an embedded scenario, and comes
		// before scenario validation.
		ssp := scenarioSpec().Canon()
		c.mut(&ssp)
		if err := ssp.Validate(); !errors.Is(err, ErrUnsupportedEstimator) {
			t.Errorf("%s + scenario: Validate() = %v, want errors.Is(ErrUnsupportedEstimator)", c.name, err)
		}
	}
	// And over the wire: a decoded submission fails loudly, not with an
	// unknown-field error.
	_, err := DecodeSpec(strings.NewReader(`{"v":1,"stratify":true}`))
	if !errors.Is(err, ErrUnsupportedEstimator) {
		t.Fatalf("DecodeSpec(stratify) = %v, want errors.Is(ErrUnsupportedEstimator)", err)
	}
	if _, err := DecodeSpec(strings.NewReader(`{"v":1,"dedup":true}`)); !errors.Is(err, ErrUnsupportedEstimator) {
		t.Fatalf("DecodeSpec(dedup) = %v, want errors.Is(ErrUnsupportedEstimator)", err)
	}
}

func TestScenarioSpecCanonBackfill(t *testing.T) {
	sp := scenarioSpec().Canon()
	// The scenario's run block backfills the spec's unset run knobs...
	if sp.Trials != 40 || sp.Seed != 11 || sp.Workers != 2 {
		t.Fatalf("run knobs not backfilled: %+v", sp)
	}
	if sp.Shards != 1 {
		t.Fatalf("shards default drifted: %+v", sp)
	}
	// ...but the fixture/fault fields stay zero: the scenario owns them.
	if sp.Model != "" || sp.Classes != 0 || sp.Error != "" || sp.DType != "" || sp.Backend != "" {
		t.Fatalf("fixture fields should stay zero under a scenario: %+v", sp)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("canonical scenario spec invalid: %v", err)
	}

	// Spec knobs win over the scenario's run block.
	over := scenarioSpec()
	over.Trials, over.Seed, over.Workers = 99, 7, 5
	over = over.Canon()
	if over.Trials != 99 || over.Seed != 7 || over.Workers != 5 {
		t.Fatalf("spec knobs lost to the scenario: %+v", over)
	}

	// skip_errors and the stop rule carry over.
	rich := scenarioSpec()
	rich.Scenario.Run.SkipErrors = true
	rich.Scenario.Run.Stop = scenario.StopSpec{CI: 0.02, Min: 10}
	rich = rich.Canon()
	if !rich.SkipErrors {
		t.Fatalf("skip_errors not carried: %+v", rich)
	}
	if rich.StopCI != 0.02 || rich.StopConf != 0.95 || rich.StopMin != 10 {
		t.Fatalf("stop rule not carried: ci=%g conf=%g min=%d", rich.StopCI, rich.StopConf, rich.StopMin)
	}

	// Canon is idempotent on scenario specs too.
	if again := sp.Canon(); !reflect.DeepEqual(again, sp) {
		t.Fatalf("canon not idempotent:\n got %+v\nwant %+v", again, sp)
	}
}

func TestScenarioSpecValidate(t *testing.T) {
	mut := func(f func(*Spec)) Spec {
		sp := scenarioSpec()
		f(&sp)
		return sp.Canon()
	}
	cases := []struct {
		name string
		sp   Spec
		want error
	}{
		{"model conflict", mut(func(sp *Spec) { sp.Model = "alexnet" }), ErrSpec},
		{"classes conflict", mut(func(sp *Spec) { sp.Classes = 4 }), ErrSpec},
		{"error conflict", mut(func(sp *Spec) { sp.Error = "zero" }), ErrSpec},
		{"dtype conflict", mut(func(sp *Spec) { sp.DType = "fp16" }), ErrSpec},
		{"backend conflict", mut(func(sp *Spec) { sp.Backend = "int8" }), ErrSpec},
		{"act_zp conflict", mut(func(sp *Spec) { sp.ActZeroPoint = true }), ErrSpec},
		{"observers", mut(func(sp *Spec) {
			sp.Scenario.Observers = []scenario.ObserverSpec{{Kind: scenario.ObsSDC}}
		}), ErrSpec},
		{"invalid scenario", mut(func(sp *Spec) { sp.Scenario.Selector.Kind = "martian" }), ErrSpec},
		{"sweep without trials", mut(func(sp *Spec) {
			sp.Scenario.Selector = scenario.SelectorSpec{Kind: scenario.SelSweep, Sweep: &scenario.SweepSpec{}}
			sp.Scenario.Run.Trials = 0
		}), ErrSpec},
	}
	for _, c := range cases {
		if err := c.sp.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: Validate() = %v, want errors.Is(%v)", c.name, err, c.want)
		}
	}
	// A sweep that declares its budget (scenario- or spec-side) passes.
	sweep := mut(func(sp *Spec) {
		sp.Scenario.Selector = scenario.SelectorSpec{Kind: scenario.SelSweep, Sweep: &scenario.SweepSpec{}}
		sp.Scenario.Run.Trials = 64
	})
	if err := sweep.Validate(); err != nil {
		t.Errorf("sweep with declared trials: %v", err)
	}
}

func TestScenarioSpecConfig(t *testing.T) {
	sp := scenarioSpec()
	sp.Trials = 24
	sp.SkipErrors = true
	sp.Scenario.Run.Stop = scenario.StopSpec{CI: 0.01, Conf: 0.9, Min: 5}
	sp.StopConf = 0.8
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	// The run block's stop rule reaches the config, one knob at a time:
	// the spec set the level and nothing else.
	if want := (stats.StopRule{HalfWidth: 0.01, Confidence: 0.8, MinTrials: 5}); cfg.Stop != want {
		t.Fatalf("stop rule = %+v, want %+v", cfg.Stop, want)
	}
	if cfg.Scenario == nil {
		t.Fatal("config lost the scenario")
	}
	if !reflect.DeepEqual(*cfg.Scenario, sp.Scenario.Canon()) {
		t.Fatal("config carries a non-canonical scenario")
	}
	// The spec's run knobs won.
	if cfg.Trials != 24 || cfg.Seed != 11 || cfg.Workers != 2 {
		t.Fatalf("run knobs drifted: %+v", cfg)
	}
	if !cfg.PrefixReuse || cfg.TrialBatch != 0 || cfg.Schedule != campaign.ScheduleAuto {
		t.Fatalf("execution settings must be the defaults (reuse on, lanes worked out, auto): %+v", cfg)
	}
	if cfg.OnError != campaign.SkipAndCount {
		t.Fatal("skip_errors not honored")
	}
	// The scenario owns the fixture: the generic fields stay zero and
	// Prepare resolves them from the scenario's model block.
	if cfg.Model != "" || cfg.Classes != 0 {
		t.Fatalf("fixture fields should stay zero: %+v", cfg)
	}
}

func TestScenarioSpecDecode(t *testing.T) {
	doc := `{"v":1,"scenario":{
		"model":{"arch":"alexnet","classes":4,"in_size":16,"epochs":6},
		"run":{"trials":40,"seed":11,"workers":2}}}`
	sp, err := DecodeSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Scenario == nil || sp.Scenario.Model.Arch != "alexnet" || sp.Trials != 40 {
		t.Fatalf("decoded spec = %+v", sp)
	}
	// Unknown fields inside the embedded scenario fail loudly too.
	if _, err := DecodeSpec(strings.NewReader(`{"v":1,"scenario":{"selctor":{}}}`)); !errors.Is(err, ErrSpec) {
		t.Fatalf("unknown scenario field: %v", err)
	}
	// Scenario observers are rejected on the wire.
	withObs := `{"v":1,"scenario":{"observers":[{"kind":"sdc"}],"run":{"trials":10}}}`
	if _, err := DecodeSpec(strings.NewReader(withObs)); !errors.Is(err, ErrSpec) {
		t.Fatalf("scenario observers: %v", err)
	}
}

func TestScenarioEnvKey(t *testing.T) {
	base := scenarioSpec()
	// Run-shape knobs — top-level or inside the scenario's run block —
	// must not split the fixture cache.
	same := []func(*Spec){
		func(sp *Spec) { sp.Trials = 77777 },
		func(sp *Spec) { sp.Shards = 9 },
		func(sp *Spec) { sp.Scenario.Run.Trials = 500 },
		func(sp *Spec) { sp.Scenario.Run.Workers = 13 },
		func(sp *Spec) { sp.Scenario.Run.Stop = scenario.StopSpec{CI: 0.01} },
	}
	for i, f := range same {
		sp := scenarioSpec()
		f(&sp)
		if sp.envKey() != base.envKey() {
			t.Errorf("run-shape mutation %d changed the fixture key", i)
		}
	}
	// Fixture and fault fields must.
	diff := []func(*Spec){
		func(sp *Spec) { sp.Scenario.Model.Arch = "squeezenet" },
		func(sp *Spec) { sp.Scenario.Fault.Backend = "int8" },
		func(sp *Spec) { sp.Scenario.Fault.DType = "fp16" },
		func(sp *Spec) { sp.Scenario.Layers = []scenario.Rule{{Match: "*"}} },
		func(sp *Spec) { sp.Scenario.Run.Seed = 99 }, // the campaign seed is fixture state (training seed)
	}
	for i, f := range diff {
		sp := scenarioSpec()
		f(&sp)
		if sp.envKey() == base.envKey() {
			t.Errorf("fixture mutation %d did not change the fixture key", i)
		}
	}
	// A plain spec and a scenario spec never share a fixture.
	if base.envKey() == baseSpec().envKey() {
		t.Error("scenario and plain specs share a fixture key")
	}
}

// TestOffWireRunsLocallyOnly: the four things a spec can describe but the
// service cannot run lower to a local config, and are turned away at
// every door of the service — a decoded submission, Server.Submit and a
// restored checkpoint.
func TestOffWireRunsLocallyOnly(t *testing.T) {
	sweep := func(sp *Spec) {
		sp.Scenario.Selector = scenario.SelectorSpec{Kind: scenario.SelSweep, Sweep: &scenario.SweepSpec{}}
		sp.Scenario.Run.Trials = 0
	}
	for _, c := range []struct {
		name string
		sp   Spec
		mut  func(*Spec)
	}{
		{"stratify", baseSpec(), func(sp *Spec) { sp.Stratify = true }},
		{"dedup", baseSpec(), func(sp *Spec) { sp.Dedup = true }},
		{"observers", scenarioSpec(), func(sp *Spec) {
			sp.Scenario.Observers = []scenario.ObserverSpec{{Kind: scenario.ObsSDC}}
		}},
		{"budget-less sweep", scenarioSpec(), sweep},
	} {
		sp := c.sp
		c.mut(&sp)
		cfg, err := sp.Config()
		if err != nil {
			t.Errorf("%s: no local config: %v", c.name, err)
		}
		if cfg.Stratify != sp.Stratify || cfg.Dedup != sp.Dedup || (sp.Stratify || sp.Dedup) && (cfg.Arm != nil || cfg.ErrorModel == nil) {
			t.Errorf("%s: estimator fields not lowered (the generator must own arming): %+v", c.name, cfg)
		}

		raw, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSpec(bytes.NewReader(raw)); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: DecodeSpec = %v, want ErrSpec", c.name, err)
		}
		dir := t.TempDir()
		srv, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Submit(sp); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: Server.Submit = %v, want ErrSpec", c.name, err)
		}
		srv.Close()
		ck := serialize.CampaignCheckpoint{ID: "c000001", State: StatePaused, Spec: raw, StopTrial: -1}
		if err := serialize.SaveCampaignCheckpoint(filepath.Join(dir, "c000001.ckpt"), ck); err != nil {
			t.Fatal(err)
		}
		if _, err := New(Config{Dir: dir}); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: restoring a checkpoint = %v, want ErrSpec", c.name, err)
		}
	}
	// Stratify and dedup keep their local constraints on both paths.
	for _, mut := range []func(*Spec){
		func(sp *Spec) { sp.Stratify, sp.Scope = true, "weight" },
		func(sp *Spec) { sp.Stratify, sp.Error = true, "zero" },
		func(sp *Spec) { sp.Dedup, sp.Scope = true, "fmap" },
	} {
		sp := baseSpec()
		mut(&sp)
		if _, err := sp.Config(); !errors.Is(err, ErrSpec) {
			t.Errorf("Config(%+v) = %v, want ErrSpec", sp, err)
		}
	}
}
