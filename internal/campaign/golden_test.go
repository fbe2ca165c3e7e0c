package campaign

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/nn"
	"gofi/internal/train"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden campaign aggregates")

// goldenAggregate is the committed form of a campaign result. ConfDropSum
// is stored as the exact float64 bit pattern so the comparison is
// byte-level, immune to JSON float formatting.
type goldenAggregate struct {
	Trials          int    `json:"trials"`
	Top1Mis         int    `json:"top1_mis"`
	OutOfTop5       int    `json:"out_of_top5"`
	NonFinite       int    `json:"non_finite"`
	BigConfDrop     int    `json:"big_conf_drop"`
	Skipped         int    `json:"skipped"`
	ConfDropSumBits uint64 `json:"conf_drop_sum_bits"`
	ConfDropSum     string `json:"conf_drop_sum"` // human-readable echo
}

func goldenFromAggregate(a Aggregate) goldenAggregate {
	return goldenAggregate{
		Trials:          a.Trials,
		Top1Mis:         a.Top1Mis,
		OutOfTop5:       a.OutOfTop5,
		NonFinite:       a.NonFinite,
		BigConfDrop:     a.BigConfDrop,
		Skipped:         a.Skipped,
		ConfDropSumBits: math.Float64bits(a.ConfDropSum),
		ConfDropSum:     strconv.FormatFloat(a.ConfDropSum, 'g', -1, 64),
	}
}

// residualSetup trains the second golden topology: a residual block
// between two convs, exercising the atomic-node path of the chain
// planner inside a full campaign.
func residualSetup(t *testing.T) (*data.Classification, nn.Layer, []int, func(int) (*core.Injector, error)) {
	t.Helper()
	ds, err := data.NewClassification(data.ClassificationConfig{
		Classes: 4, Channels: 3, Size: 16, Noise: 0.1, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func() nn.Layer {
		rng := rand.New(rand.NewSource(2))
		return nn.NewSequential("rm",
			nn.NewConv2d("stem", rng, 3, 8, 3, nn.Conv2dConfig{Pad: 1}),
			nn.NewReLU("r0"),
			nn.NewResidual("block",
				nn.NewSequential("body",
					nn.NewConv2d("c1", rng, 8, 8, 3, nn.Conv2dConfig{Pad: 1}),
					nn.NewReLU("r1"),
					nn.NewConv2d("c2", rng, 8, 8, 3, nn.Conv2dConfig{Pad: 1}),
				),
				nil,
				nn.NewReLU("post"),
			),
			nn.NewGlobalAvgPool2d("gap"),
			nn.NewFlatten("fl"),
			nn.NewLinear("fc", rng, 8, 4, true),
		)
	}
	model := build()
	if _, err := train.Loop(model, ds, train.Config{Epochs: 3, BatchSize: 16, TrainSize: 256, LR: 0.05, Momentum: 0.9}); err != nil {
		t.Fatal(err)
	}
	eligible := train.CorrectIndices(model, ds, 5000, 60, 12)
	if len(eligible) < 20 {
		t.Fatalf("residual model only classifies %d/60 correctly", len(eligible))
	}
	factory := func(worker int) (*core.Injector, error) {
		replica := build()
		if err := nn.ShareParams(replica, model); err != nil {
			return nil, err
		}
		// Batch 8 gives the batched trial-packing corners below real lanes.
		return core.New(replica, core.Config{Batch: 8, Height: 16, Width: 16, Seed: int64(worker) + 177})
	}
	return ds, model, eligible, factory
}

// TestGoldenCampaignAggregates locks the (Seed, Trials) contract against
// drift: any change to the RNG stream, kernels, scheduling, or the reuse
// path that alters campaign results fails against the committed goldens.
// Regenerate deliberately with: go test ./internal/campaign -run Golden -update
func TestGoldenCampaignAggregates(t *testing.T) {
	type fixture struct {
		name string
		cfg  func(t *testing.T) Config
	}
	fixtures := []fixture{
		{
			name: "convnet",
			cfg: func(t *testing.T) Config {
				ds, model, eligible := trainedSetup(t)
				return Config{
					Trials:     50,
					Seed:       41,
					NewReplica: replicaFactory(t, model),
					Source:     ds,
					Eligible:   eligible,
					ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
						_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
						return err
					},
				}
			},
		},
		{
			name: "residual",
			cfg: func(t *testing.T) Config {
				ds, _, eligible, factory := residualSetup(t)
				return Config{
					Trials:     50,
					Seed:       42,
					NewReplica: factory,
					Source:     ds,
					Eligible:   eligible,
					ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
						_, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue())
						return err
					},
				}
			},
		},
		{
			// The int8 fixture runs the whole campaign on the quantized
			// GEMM/conv backend: clean predictions, bit flips in stored
			// int8 codes, and requantized activations. int32 accumulation
			// is exact, so the same worker/schedule/reuse corners must be
			// byte-identical here too.
			name: "int8",
			cfg: func(t *testing.T) Config {
				ds, model, eligible := trainedSetup(t)
				return Config{
					Trials:     50,
					Seed:       43,
					NewReplica: int8ReplicaFactory(t, ds, model),
					Source:     ds,
					Eligible:   eligible,
					ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
						// Half single-neuron MSB flips in stored int8 codes
						// (almost always masked by pooling on this model —
						// the int8 resilience story), half whole-fmap
						// corruption so the golden's outcome counters stay
						// non-trivial.
						if rng.Intn(2) == 0 {
							_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: 7})
							return err
						}
						layers := inj.Layers()
						li := layers[rng.Intn(len(layers))]
						return inj.InjectFMap(li.Index, rng.Intn(li.OutShape[1]), core.DefaultRandomValue())
					},
				}
			},
		},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			base := fx.cfg(t)
			path := filepath.Join("testdata", "golden_campaign_"+fx.name+".json")
			run := func(workers, trialBatch int, sch Schedule, reuse bool) Aggregate {
				cfg := base
				cfg.Workers = workers
				cfg.TrialBatch = trialBatch
				cfg.Schedule = sch
				cfg.PrefixReuse = reuse
				agg, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return agg
			}
			// The aggregate must not depend on workers, the reuse path,
			// trial batching, or the schedule mode; check every corner
			// against one golden. The goldens predate both the batched
			// path and the scheduler, so K > 1 and every schedule
			// matching them is the byte-identity proof, not a re-baseline.
			aggs := make(map[string]Aggregate)
			for _, w := range []int{1, 8} {
				for _, reuse := range []bool{false, true} {
					suffix := "/full"
					if reuse {
						suffix = "/reuse"
					}
					for _, sch := range []Schedule{ScheduleAuto, SchedulePack, ScheduleSeq} {
						for _, k := range []int{1, 4, 8} {
							aggs[fmt.Sprintf("w%d/k%d/%v%s", w, k, sch, suffix)] = run(w, k, sch, reuse)
						}
					}
				}
			}
			ref := aggs["w1/k1/auto/full"]
			for mode, agg := range aggs {
				if agg != ref {
					t.Fatalf("%s aggregate %+v != w1/k1/auto/full %+v", mode, agg, ref)
				}
			}
			got := goldenFromAggregate(ref)
			if *updateGolden {
				buf, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			var want goldenAggregate
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("campaign drifted from golden %s:\n got %+v\nwant %+v", path, got, want)
			}
		})
	}
}
