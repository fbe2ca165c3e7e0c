package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/scenario"
)

var updateScenarioGolden = flag.Bool("update", false, "rewrite the scenario golden fixtures")

// scenarioConfig is the configuration serve.Spec.Config builds for a spec
// that carries sc and sets no run knob of its own (that package imports
// this one, so the tests here cannot call it).
func scenarioConfig(sc scenario.Scenario) GenericCampaignConfig {
	sc = sc.Canon()
	cfg := GenericCampaignConfig{
		Trials:      sc.Run.Trials,
		Workers:     sc.Run.Workers,
		Seed:        sc.Run.Seed,
		PrefixReuse: true,
		Stop:        sc.Run.Stop.Rule(),
		Scenario:    &sc,
	}
	if sc.Run.SkipErrors {
		cfg.OnError = campaign.SkipAndCount
	}
	return cfg
}

func TestPrepareGenericCampaignScenarioConflicts(t *testing.T) {
	sc := scenario.Scenario{Run: scenario.RunSpec{Trials: 5}}.Canon()
	arm := func(inj *core.Injector, rng *rand.Rand) error { return nil }
	for name, cfg := range map[string]GenericCampaignConfig{
		"arm":         {Scenario: &sc, Arm: arm},
		"stratify":    {Scenario: &sc, Stratify: true},
		"dedup":       {Scenario: &sc, Dedup: true, ErrorModel: core.Zero{}},
		"error model": {Scenario: &sc, ErrorModel: core.Zero{}},
	} {
		if _, err := PrepareGenericCampaign(context.Background(), cfg); err == nil {
			t.Errorf("%s alongside a scenario must be rejected", name)
		}
	}
	if _, err := PrepareGenericCampaign(context.Background(), GenericCampaignConfig{}); err == nil {
		t.Error("no Arm, no generator, no scenario must be rejected")
	}
}

// handWired returns the imperative GenericCampaignConfig equivalent to a
// committed example scenario — the configs a user would have written
// before scenarios existed. Every file in examples/scenarios MUST have
// an entry here: the differential suite fails on an example without a
// hand-wired twin, so the byte-identity promise covers all of them.
func handWired(t *testing.T) map[string]func(*testing.T, context.Context) *CampaignEnv {
	base := GenericCampaignConfig{
		Model:       "alexnet",
		Classes:     4,
		InSize:      16,
		TrainEpochs: 6,
		Noise:       0.2,
		Trials:      20,
		Workers:     2,
		Seed:        11,
	}
	prepare := func(t *testing.T, ctx context.Context, cfg GenericCampaignConfig) *CampaignEnv {
		t.Helper()
		env, err := PrepareGenericCampaign(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	return map[string]func(*testing.T, context.Context) *CampaignEnv{
		"neuron_bitflip.yaml": func(t *testing.T, ctx context.Context) *CampaignEnv {
			cfg := base
			cfg.DType = core.INT8
			cfg.Arm = func(inj *core.Injector, rng *rand.Rand) error {
				_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
				return err
			}
			return prepare(t, ctx, cfg)
		},
		"per_layer_zero.json": func(t *testing.T, ctx context.Context) *CampaignEnv {
			cfg := base
			cfg.DType = core.FP32
			cfg.Arm = func(inj *core.Injector, rng *rand.Rand) error {
				_, err := inj.InjectRandomNeuronPerLayer(rng, core.Zero{})
				return err
			}
			return prepare(t, ctx, cfg)
		},
		"int8_stored_code.yaml": func(t *testing.T, ctx context.Context) *CampaignEnv {
			cfg := base
			cfg.Backend = "int8"
			cfg.Arm = func(inj *core.Injector, rng *rand.Rand) error {
				_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
				return err
			}
			return prepare(t, ctx, cfg)
		},
		"layer_rules.yaml": func(t *testing.T, ctx context.Context) *CampaignEnv {
			cfg := base
			cfg.DType = core.INT8
			// conv1 disabled; conv2-4 restricted to bits [6,7]; conv5 a
			// stuck-at-1 on bit 7 — resolved by hand.
			cfg.Arm = func(inj *core.Injector, rng *rand.Rand) error {
				enabled := []int{1, 2, 3, 4}
				li := enabled[rng.Intn(len(enabled))]
				site, err := inj.SiteInLayer(rng, li, true)
				if err != nil {
					return err
				}
				var m core.ErrorModel = core.RangedBitFlip{Lo: 6, Hi: 7}
				if li == 4 {
					m = core.StuckAt{Bit: 7, One: true}
				}
				return inj.DeclareNeuronFI(m, site)
			}
			return prepare(t, ctx, cfg)
		},
		"sweep_conv5_bit0.yaml": func(t *testing.T, ctx context.Context) *CampaignEnv {
			cfg := base
			cfg.DType = core.INT8
			cfg.Trials = 64
			cfg.Arm = func(inj *core.Injector, rng *rand.Rand) error { return nil } // replaced below
			env := prepare(t, ctx, cfg)
			// The sweep needs the trial index, which Arm does not carry:
			// enumerate conv5's 4x4x4 sub-volume by hand and arm site
			// t mod 64 through the engine's ArmTrial hook.
			probe, err := env.NewReplica(0)
			if err != nil {
				t.Fatal(err)
			}
			layers := probe.Layers()
			probe.Detach()
			if len(layers) != 5 {
				t.Fatalf("alexnet fixture has %d hooked layers, want 5", len(layers))
			}
			var sites []core.NeuronSite
			for c := 0; c <= 3; c++ {
				for h := 0; h <= 3; h++ {
					for w := 0; w <= 3; w++ {
						sites = append(sites, core.NeuronSite{Layer: 4, Batch: core.AllBatches, C: c, H: h, W: w})
					}
				}
			}
			env.Cfg.Arm = nil
			env.armTrial = func(inj *core.Injector, _ *rand.Rand, trial int) error {
				return inj.DeclareNeuronFI(core.BitFlip{Bit: 0}, sites[trial%len(sites)])
			}
			return env
		},
	}
}

// runMatrix executes the prepared campaign across the full execution
// matrix — Workers {1,8} x schedule {auto,pack,seq} x prefix reuse
// on/off — and returns the per-cell aggregates.
func runMatrix(t *testing.T, env *CampaignEnv) map[string]campaign.Aggregate {
	t.Helper()
	out := map[string]campaign.Aggregate{}
	for _, w := range []int{1, 8} {
		for _, sched := range []campaign.Schedule{campaign.ScheduleAuto, campaign.SchedulePack, campaign.ScheduleSeq} {
			for _, reuse := range []bool{true, false} {
				env.Cfg.Schedule = sched
				env.Cfg.PrefixReuse = reuse
				agg, err := env.Run(context.Background(), ShardRun{Trials: env.Cfg.Trials, Workers: w})
				if err != nil {
					t.Fatalf("w=%d %v reuse=%v: %v", w, sched, reuse, err)
				}
				out[fmt.Sprintf("w%d/%v/reuse=%v", w, sched, reuse)] = agg
			}
		}
	}
	return out
}

// TestScenarioDifferentialByteIdentity is the tentpole's proof
// obligation: every committed example scenario, compiled and run through
// the campaign engine, must reproduce the aggregate of its hand-wired
// imperative equivalent byte-for-byte — across the whole worker x
// schedule x prefix-reuse matrix, since none of those knobs may change
// which fault a trial index arms.
func TestScenarioDifferentialByteIdentity(t *testing.T) {
	skipIfShort(t)
	ctx := context.Background()
	twins := handWired(t)

	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			mk, ok := twins[name]
			if !ok {
				t.Fatalf("committed example %s has no hand-wired twin in handWired; add one so the byte-identity promise covers it", name)
			}
			sc, err := scenario.Load(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			gcfg := scenarioConfig(sc)
			senv, err := PrepareGenericCampaign(ctx, gcfg)
			if err != nil {
				t.Fatal(err)
			}
			henv := mk(t, ctx)

			if senv.Cfg.Trials != henv.Cfg.Trials {
				t.Fatalf("trial budgets differ: scenario %d, hand %d", senv.Cfg.Trials, henv.Cfg.Trials)
			}
			if senv.CampaignSeed != henv.CampaignSeed {
				t.Fatalf("campaign seeds differ: %d vs %d", senv.CampaignSeed, henv.CampaignSeed)
			}
			if !reflect.DeepEqual(senv.Eligible, henv.Eligible) {
				t.Fatal("eligible sample lists differ — the model fixtures diverged")
			}

			sAggs := runMatrix(t, senv)
			hAggs := runMatrix(t, henv)
			ref := hAggs["w1/auto/reuse=true"]
			if ref.Trials != senv.Cfg.Trials {
				t.Fatalf("reference aggregate ran %d trials, want %d", ref.Trials, senv.Cfg.Trials)
			}
			for cell, got := range sAggs {
				if got != ref {
					t.Errorf("scenario aggregate at %s = %+v != hand-wired %+v", cell, got, ref)
				}
			}
			for cell, got := range hAggs {
				if got != ref {
					t.Errorf("hand-wired aggregate at %s = %+v drifted from its own reference %+v", cell, got, ref)
				}
			}
		})
	}
}

// scenarioGoldenResult is the committed shape: the aggregate plus the
// per-layer observer report, with float64s pinned by their bit patterns.
type scenarioGoldenResult struct {
	Aggregate campaign.Aggregate `json:"aggregate"`
	Observers *scenario.Report   `json:"observers"`
}

// TestScenarioGolden locks two full scenario runs — one per backend,
// both with observers — against committed fixtures. Any drift in the
// decode → compile → engine → observer-fold pipeline fails byte-exactly.
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestScenarioGolden -update
func TestScenarioGolden(t *testing.T) {
	skipIfShort(t)
	cases := []struct {
		name, scenarioFile, goldenFile string
	}{
		{"f32", filepath.Join("testdata", "scenario_f32_observers.yaml"), filepath.Join("testdata", "golden_scenario_f32.json")},
		{"int8", filepath.Join("..", "..", "examples", "scenarios", "int8_stored_code.yaml"), filepath.Join("testdata", "golden_scenario_int8.json")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc, err := scenario.Load(c.scenarioFile)
			if err != nil {
				t.Fatal(err)
			}
			gcfg := scenarioConfig(sc)
			res, err := RunGenericCampaign(context.Background(), gcfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Observers == nil {
				t.Fatal("golden scenarios declare observers; report missing")
			}
			for _, lm := range res.Observers.MSE {
				if lm.MSEBits == 0 && lm.Trials > 0 {
					t.Errorf("layer %s observed %d trials but MSEBits is zero", lm.Path, lm.Trials)
				}
			}
			got, err := json.MarshalIndent(scenarioGoldenResult{Aggregate: res.Aggregate, Observers: res.Observers}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if *updateScenarioGolden {
				if err := os.WriteFile(c.goldenFile, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", c.goldenFile)
				return
			}
			want, err := os.ReadFile(c.goldenFile)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("scenario run drifted from golden %s:\n got: %s\nwant: %s", c.goldenFile, got, want)
			}
		})
	}
}

// TestWeightScopeIsolatesReplicas: a scenario with weight scope must come
// out of PrepareGenericCampaign with IsolateWeights set and replicas that
// really share no weight storage — on both backends — because the engine
// resumes weight-armed trials from the shared clean checkpoints only on
// such replicas (campaign.Run observes it with core.WeightStorageShared).
// A neuron scenario keeps the shared weights, so the check sees both.
func TestWeightScopeIsolatesReplicas(t *testing.T) {
	skipIfShort(t)
	for _, tc := range []struct {
		scope, backend string
		isolated       bool
	}{
		{"weight", "f32", true},
		{"weight", "int8", true},
		{"neuron", "f32", false},
	} {
		t.Run(tc.scope+"/"+tc.backend, func(t *testing.T) {
			dtype := "fp32"
			if tc.backend == "int8" {
				dtype = "int8"
			}
			noise := 0.2
			cfg := scenarioConfig(scenario.Scenario{
				Model: scenario.ModelSpec{Arch: "alexnet", Classes: 4, InSize: 16, Epochs: 2, Noise: &noise},
				Fault: scenario.FaultSpec{Scope: tc.scope, Backend: tc.backend, DType: dtype},
				Run:   scenario.RunSpec{Trials: 4, Workers: 2, Seed: 11},
			})
			env, err := PrepareGenericCampaign(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if env.Cfg.IsolateWeights != tc.isolated {
				t.Fatalf("IsolateWeights = %v for scope %s", env.Cfg.IsolateWeights, tc.scope)
			}
			a, err := env.NewReplica(0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := env.NewReplica(1)
			if err != nil {
				t.Fatal(err)
			}
			if shared := core.WeightStorageShared(a, b); shared == tc.isolated {
				t.Fatalf("replicas share weight storage = %v for scope %s", shared, tc.scope)
			}
		})
	}
}
