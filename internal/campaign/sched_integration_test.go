package campaign

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gofi/internal/campaign/sched"
	"gofi/internal/core"
	"gofi/internal/obs"
)

// probeAll reproduces the engine's probe pass over an explicit
// worker-assignment function: trial t is probed on worker assign(t), in
// the iteration order given by perm. The engine's contract is that the
// resulting specs — and therefore the plan — depend on neither.
func probeAll(cfg Config, crew []*worker, assign func(int) int, perm []int) []sched.Trial {
	x := &executor{cfg: cfg}
	specs := make([]sched.Trial, cfg.Trials)
	for _, trial := range perm {
		specs[trial] = x.probe(crew[assign(trial)], trial)
	}
	return specs
}

// TestSchedulePlanDeterministicAcrossWorkers is the plan-determinism
// property test: the emitted plan is a pure function of (Seed, Trials,
// cost table). Probing on 1 replica in trial order and on 8 replicas in
// reverse order with interleaved assignment must yield byte-identical
// specs, and sched.Build over them (with a fixed cost table) identical
// plans at every mode.
func TestSchedulePlanDeterministicAcrossWorkers(t *testing.T) {
	cfg := untrainedCampaign(t, func(inj *core.Injector, rng *rand.Rand) error {
		_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
		return err
	})
	mkCrew := func(n int) []*worker {
		crew := make([]*worker, n)
		for w := range crew {
			inj, err := cfg.NewReplica(w)
			if err != nil {
				t.Fatal(err)
			}
			crew[w] = &worker{id: w, inj: inj}
			crew[w].plan, _ = inj.BuildPrefixPlan()
		}
		return crew
	}
	forward := make([]int, cfg.Trials)
	for i := range forward {
		forward[i] = i
	}
	specs1 := probeAll(cfg, mkCrew(1), func(int) int { return 0 }, forward)

	reverse := make([]int, cfg.Trials)
	for i := range reverse {
		reverse[i] = cfg.Trials - 1 - i
	}
	specs8 := probeAll(cfg, mkCrew(8), func(trial int) int { return trial % 8 }, reverse)

	if !reflect.DeepEqual(specs1, specs8) {
		t.Fatalf("probed specs depend on worker assignment:\n w1 %+v\n w8 %+v", specs1, specs8)
	}
	costs := sched.NewCostTable([]float64{7, 1, 6, 1, 2, 0, 1})
	for _, mode := range []Schedule{ScheduleAuto, SchedulePack, ScheduleSeq} {
		for _, reuse := range []bool{false, true} {
			c := sched.Config{K: 8, Mode: mode, Reuse: reuse, Costs: costs}
			plan1 := sched.Build(specs1, c)
			plan8 := sched.Build(specs8, c)
			if !reflect.DeepEqual(plan1, plan8) {
				t.Fatalf("%v/reuse=%v plan differs across worker counts:\n %+v\n %+v", mode, reuse, plan1, plan8)
			}
		}
	}
}

// TestScheduleAutoRespectsCostModel runs the engine end to end at
// TrialBatch 8 and checks the auto scheduler's decisions through the
// metrics: with PrefixReuse on, packing always loses under the model
// (each sequential trial resumes from a warmed checkpoint at its own
// cut) so nothing packs; with reuse off, shared prefixes make packs win
// for most trials. Both runs must still reproduce the sequential
// aggregate byte-identically.
func TestScheduleAutoRespectsCostModel(t *testing.T) {
	arm := func(inj *core.Injector, rng *rand.Rand) error {
		_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
		return err
	}
	ref, err := Run(context.Background(), untrainedCampaign(t, arm))
	if err != nil {
		t.Fatal(err)
	}
	run := func(reuse bool) (Aggregate, *obs.Registry) {
		cfg := untrainedCampaign(t, arm)
		cfg.Workers = 2
		cfg.TrialBatch = 8
		cfg.PrefixReuse = reuse
		cfg.Metrics = obs.NewRegistry()
		agg, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return agg, cfg.Metrics
	}

	agg, reg := run(true)
	if agg != ref {
		t.Fatalf("auto/reuse aggregate %+v != sequential %+v", agg, ref)
	}
	if v := reg.Gauge(MetricSchedModeled).Value(); v != 1 {
		t.Fatalf("reuse-on plan not cost-modeled (modeled=%v) — calibration missing?", v)
	}
	if v := reg.Gauge(MetricSchedCostSource).Value(); v != costSourceTimed {
		t.Fatalf("reuse-on cost source = %v, want timed (%d)", v, costSourceTimed)
	}
	if packed := reg.Gauge(MetricSchedPacked).Value(); packed != 0 {
		t.Fatalf("auto scheduler packed %v trials under reuse; the model prices packing above sequential there", packed)
	}
	// The counters `bench compare` treats as exact on the default neuron
	// path: every live trial planned solo, none forced or demoted.
	if solo := reg.Gauge(MetricSchedSolo).Value(); solo != 64 {
		t.Fatalf("solo trials = %v, want all 64 live trials", solo)
	}
	if seq, fb := reg.Gauge(MetricSchedSeq).Value(), reg.Counter(MetricBatchSeqFallbacks).Value(); seq != 0 || fb != 0 {
		t.Fatalf("lane-safe neuron trials planned seq=%v, fell back %d times; want 0, 0", seq, fb)
	}

	agg, reg = run(false)
	if agg != ref {
		t.Fatalf("auto/full aggregate %+v != sequential %+v", agg, ref)
	}
	if v := reg.Gauge(MetricSchedCostSource).Value(); v != costSourceTimed {
		t.Fatalf("reuse-off cost source = %v, want timed (%d) — clean-pass chain walks not timed?", v, costSourceTimed)
	}
	if packed := reg.Gauge(MetricSchedPacked).Value(); packed == 0 {
		t.Fatal("auto scheduler packed nothing without reuse; shared prefixes should make packs win")
	}
}

// TestNoLanesNoPlanner: when lanes cannot be used — TrialBatch 0 or 1
// (what weight-scope campaigns resolve to) or ScheduleSeq at any width —
// the engine builds its width-1 entry list without the probe pass or the
// scheduler, so no campaign.sched.* / campaign.batch.* metric is even
// registered, and the aggregate is still the reference one.
func TestNoLanesNoPlanner(t *testing.T) {
	neuron := func(inj *core.Injector, rng *rand.Rand) error {
		_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
		return err
	}
	weight := func(inj *core.Injector, rng *rand.Rand) error {
		_, err := inj.InjectRandomWeight(rng, core.DefaultRandomValue())
		return err
	}
	for _, c := range []struct {
		name       string
		arm        func(*core.Injector, *rand.Rand) error
		trialBatch int
		schedule   Schedule
	}{
		{"k0", neuron, 0, ScheduleAuto},
		{"k1", neuron, 1, ScheduleAuto},
		{"k1 weight", weight, 1, ScheduleAuto},
		{"k8 seq", neuron, 8, ScheduleSeq},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref, err := Run(context.Background(), untrainedCampaign(t, c.arm))
			if err != nil {
				t.Fatal(err)
			}
			cfg := untrainedCampaign(t, c.arm)
			cfg.TrialBatch, cfg.Schedule = c.trialBatch, c.schedule
			cfg.PrefixReuse = true
			cfg.Metrics = obs.NewRegistry()
			agg, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if agg != ref {
				t.Fatalf("aggregate %+v != reference %+v", agg, ref)
			}
			snap := cfg.Metrics.Snapshot()
			var names []string
			for name := range snap.Counters {
				names = append(names, name)
			}
			for name := range snap.Gauges {
				names = append(names, name)
			}
			for name := range snap.Histograms {
				names = append(names, name)
			}
			for _, name := range names {
				if strings.HasPrefix(name, "campaign.sched.") || strings.HasPrefix(name, "campaign.batch.") {
					t.Errorf("%s is set, but no lanes were in use", name)
				}
			}
		})
	}
}
