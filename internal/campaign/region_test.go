package campaign

import (
	"context"
	"math/rand"
	"testing"

	"gofi/internal/core"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// trialRecords runs a campaign and returns its records indexed by trial.
func trialRecords(t *testing.T, cfg Config) []TrialRecord {
	t.Helper()
	recs := make([]TrialRecord, cfg.Trials)
	cfg.Sinks = append(cfg.Sinks, SinkFunc(func(r TrialRecord) error {
		recs[r.Trial] = r
		return nil
	}))
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	return recs
}

// requireSameRecords compares records field by field, the outcome's float
// at the bit level; the worker that ran a trial is allowed to differ.
func requireSameRecords(t *testing.T, got, want []TrialRecord) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if w.Err != "" {
			t.Fatalf("reference trial %d failed: %s", i, w.Err)
		}
		if g.Trial != w.Trial || g.Sample != w.Sample || g.Site != w.Site || g.Err != w.Err || !outcomesBitIdentical(g.Outcome, w.Outcome) {
			t.Fatalf("trial %d: %+v, reference %+v", i, g, w)
		}
	}
}

// armNeuron arms one fixed-bit flip at a random neuron, the trials the
// region suffix serves.
func armNeuron(inj *core.Injector, rng *rand.Rand, _ int) error {
	_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: 30})
	return err
}

// TestRegionSuffixMetrics: on a store that holds every boundary, every
// solo neuron trial takes the region suffix, some stop masked, and the
// three suffix metrics are the same at one worker and at eight; the
// region path's store reads move no prefix counter, and the records
// equal the reference configuration's.
func TestRegionSuffixMetrics(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	base := Config{Trials: 120, Seed: 31, NewReplica: replicaFactory(t, model), Source: ds, Eligible: eligible, ArmTrial: armNeuron}
	ref := base
	ref.Workers = 1
	want := trialRecords(t, ref)
	type view struct {
		region, masked int64
		exit           obs.HistogramStat
	}
	var views []view
	for _, workers := range []int{1, 8} {
		cfg := base
		cfg.Workers, cfg.PrefixReuse, cfg.Metrics = workers, true, obs.NewRegistry()
		requireSameRecords(t, trialRecords(t, cfg), want)
		reg := cfg.Metrics
		v := view{reg.Counter(MetricSuffixRegion).Value(), reg.Counter(MetricSuffixMaskedExits).Value(), reg.Histogram(MetricSuffixExitNode).Stat()}
		if v.region != int64(cfg.Trials) || v.masked == 0 || v.masked == v.region || v.exit.Count != v.masked {
			t.Fatalf("workers %d: region %d, masked %d, exit-node count %d of %d trials", workers, v.region, v.masked, v.exit.Count, cfg.Trials)
		}
		probes := reg.Counter(MetricPrefixHits).Value() + reg.Counter(MetricPrefixMisses).Value() + reg.Counter(MetricPrefixFallbacks).Value()
		if probes != int64(cfg.Trials) {
			t.Fatalf("workers %d: hits+misses+fallbacks %d != %d trials", workers, probes, cfg.Trials)
		}
		views = append(views, v)
	}
	if views[0] != views[1] {
		t.Fatalf("suffix metrics differ across workers: %+v vs %+v", views[0], views[1])
	}
}

// TestRegionSuffixFallsBack runs every rule that keeps a trial off the
// region suffix, or sends it back to the dense one midway, and requires
// the records of the reference configuration (one worker, reuse off).
func TestRegionSuffixFallsBack(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	base := Config{Trials: 60, Seed: 32, NewReplica: replicaFactory(t, model), Source: ds, Eligible: eligible, ArmTrial: armNeuron}
	withReplica := func(wrap func(inj *core.Injector) error) func(int) (*core.Injector, error) {
		build := base.NewReplica
		return func(w int) (*core.Injector, error) {
			inj, err := build(w)
			if err != nil {
				return nil, err
			}
			return inj, wrap(inj)
		}
	}
	for _, tc := range []struct {
		name string
		// edit turns base into the case; region is whether the trials
		// still enter the region suffix.
		edit   func(*Config)
		region bool
	}{
		{"weight_fault", func(c *Config) {
			c.NewReplica = isolatedReplicaFactory(t, ds, model, false)
			c.ArmTrial = func(inj *core.Injector, rng *rand.Rand, g int) error {
				if _, err := inj.InjectRandomWeight(rng, core.BitFlip{Bit: 30}); err != nil {
					return err
				}
				return armNeuron(inj, rng, g)
			}
		}, false},
		{"sites_in_two_nodes", func(c *Config) {
			c.ArmTrial = func(inj *core.Injector, rng *rand.Rand, _ int) error {
				a, err := inj.SiteInLayer(rng, 0, true)
				if err != nil {
					return err
				}
				b, err := inj.SiteInLayer(rng, 1, true)
				if err != nil {
					return err
				}
				return inj.DeclareNeuronFI(core.BitFlip{Bit: 30}, a, b)
			}
		}, false},
		{"hook_past_the_cut", func(c *Config) {
			c.NewReplica = withReplica(func(inj *core.Injector) error {
				var last nn.Layer
				nn.Walk(inj.Model(), func(_ string, l nn.Layer) { last = l })
				last.(interface {
					RegisterForwardHook(nn.ForwardHook) nn.HookHandle
				}).RegisterForwardHook(func(nn.Layer, *tensor.Tensor, *tensor.Tensor) {})
				return nil
			})
		}, false},
		{"activation_rounding", func(c *Config) {
			build := replicaFactory(t, model)
			c.NewReplica = func(w int) (*core.Injector, error) {
				inj, err := build(w)
				if err != nil {
					return nil, err
				}
				fp16, err := core.New(inj.Model(), core.Config{Batch: 8, Height: 16, Width: 16, DType: core.FP16, Seed: int64(w) + 77})
				inj.Detach()
				if err != nil {
					return nil, err
				}
				return fp16, fp16.EnableFP16Acts(true)
			}
			c.ArmTrial = func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: 14})
				return err
			}
		}, false},
		{"evicted_boundary", func(c *Config) {
			// Room for a few boundaries of one sample: every trial enters
			// the region suffix and most find a boundary it needs evicted.
			c.Clean = NewCleanCache(24 << 10)
		}, true},
		{"two_lanes", func(c *Config) {
			c.TrialBatch, c.Schedule = 2, SchedulePack
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			ref := cfg
			ref.Workers, ref.PrefixReuse, ref.Clean, ref.TrialBatch, ref.Schedule = 1, false, nil, 1, ScheduleAuto
			want := trialRecords(t, ref)
			cfg.Workers, cfg.PrefixReuse, cfg.Metrics = 2, true, obs.NewRegistry()
			requireSameRecords(t, trialRecords(t, cfg), want)
			region := cfg.Metrics.Counter(MetricSuffixRegion).Value()
			switch {
			case tc.region && region == 0:
				t.Fatal("no trial entered the region suffix")
			case tc.name == "evicted_boundary" && cfg.Metrics.Gauge(MetricPrefixEvictions).Value() == 0:
				t.Fatal("the store evicted nothing")
			case !tc.region && tc.name != "two_lanes" && region != 0:
				t.Fatalf("%d trials took the region suffix", region)
			case tc.name == "two_lanes" && cfg.Metrics.Counter(MetricBatchTrialsPacked).Value() == 0:
				t.Fatal("no trial ran in a two-lane entry")
			}
		})
	}
}
