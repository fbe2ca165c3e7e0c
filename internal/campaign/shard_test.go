package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"gofi/internal/core"
)

func TestSplitTrials(t *testing.T) {
	cases := []struct {
		lo, hi, shards int
		want           []Range
	}{
		{0, 10, 1, []Range{{0, 10}}},
		{0, 10, 3, []Range{{0, 4}, {4, 7}, {7, 10}}},
		{5, 9, 2, []Range{{5, 7}, {7, 9}}},
		{0, 3, 7, []Range{{0, 1}, {1, 2}, {2, 3}}},
		{0, 0, 4, nil},
		{7, 3, 2, nil},
		{0, 8, 0, []Range{{0, 8}}},
	}
	for _, c := range cases {
		got := SplitTrials(c.lo, c.hi, c.shards)
		if len(got) != len(c.want) {
			t.Fatalf("SplitTrials(%d,%d,%d) = %v, want %v", c.lo, c.hi, c.shards, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("SplitTrials(%d,%d,%d) = %v, want %v", c.lo, c.hi, c.shards, got, c.want)
			}
		}
	}
	// Property: the partition tiles [lo, hi) exactly, never empty ranges.
	for _, n := range []int{1, 2, 17, 100} {
		for shards := 1; shards <= 12; shards++ {
			rs := SplitTrials(3, 3+n, shards)
			at := 3
			for _, r := range rs {
				if r.Lo != at || r.Len() <= 0 {
					t.Fatalf("n=%d shards=%d: bad partition %v", n, shards, rs)
				}
				at = r.Hi
			}
			if at != 3+n {
				t.Fatalf("n=%d shards=%d: partition ends at %d, want %d", n, shards, at, 3+n)
			}
		}
	}
}

// TestShardMergeMatchesGolden is the distributed-determinism proof: a
// campaign split into {1, 2, 4, 7} contiguous shard ranges — each run as
// its own engine leg with Config.Offset — and re-folded in global index
// order must be byte-identical to the committed single-machine goldens,
// across worker counts, prefix reuse and forced schedules. This is the
// same property gofi-serve's coordinator relies on; here it is pinned at
// the engine layer with no HTTP in the way.
func TestShardMergeMatchesGolden(t *testing.T) {
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
			want := readGolden(t, fx.name)

			// runSharded executes the campaign as `shards` concurrent engine
			// legs, collects every leg's records, and re-folds them in
			// global index order — the serve coordinator's merge, inlined.
			runSharded := func(shards, workers, trialBatch int, sch Schedule, reuse bool) (Aggregate, []TrialRecord) {
				var mu sync.Mutex
				var recs []TrialRecord
				ranges := SplitTrials(0, base.Trials, shards)
				var wg sync.WaitGroup
				errs := make([]error, len(ranges))
				for i, r := range ranges {
					wg.Add(1)
					go func(i int, r Range) {
						defer wg.Done()
						cfg := base
						cfg.Offset = r.Lo
						cfg.Trials = r.Len()
						cfg.Workers = workers
						cfg.TrialBatch = trialBatch
						cfg.Schedule = sch
						cfg.PrefixReuse = reuse
						cfg.Sinks = []TrialSink{SinkFunc(func(rec TrialRecord) error {
							rec.Worker = 0 // attribution is timing-dependent
							mu.Lock()
							recs = append(recs, rec)
							mu.Unlock()
							return nil
						})}
						_, errs[i] = Run(context.Background(), cfg)
					}(i, r)
				}
				wg.Wait()
				for i, err := range errs {
					if err != nil {
						t.Fatalf("shard %d: %v", i, err)
					}
				}
				sort.Slice(recs, func(i, j int) bool { return recs[i].Trial < recs[j].Trial })
				var agg Aggregate
				for i, rec := range recs {
					if rec.Trial != i {
						t.Fatalf("record stream has index %d at position %d", rec.Trial, i)
					}
					agg.AddRecord(rec)
				}
				return agg, recs
			}

			var refRecs []TrialRecord
			for _, shards := range []int{1, 2, 4, 7} {
				agg, recs := runSharded(shards, 8, 8, ScheduleAuto, true)
				if got := goldenFromAggregate(agg); got != want {
					t.Fatalf("shards=%d merged aggregate drifted from golden:\n got %+v\nwant %+v", shards, got, want)
				}
				if refRecs == nil {
					refRecs = recs
				} else if !sameRecords(refRecs, recs) {
					t.Fatalf("shards=%d record stream differs from shards=1", shards)
				}
			}
			// Worker, reuse and schedule corners at a fixed shard count:
			// the merge must be oblivious to all of them.
			corners := []struct {
				name           string
				workers, batch int
				sch            Schedule
				reuse          bool
			}{
				{"w1/noreuse", 1, 8, ScheduleAuto, false},
				{"w8/pack", 8, 8, SchedulePack, true},
				{"w8/seq", 8, 8, ScheduleSeq, true},
				{"w8/k1", 8, 1, ScheduleAuto, true},
			}
			for _, c := range corners {
				agg, recs := runSharded(4, c.workers, c.batch, c.sch, c.reuse)
				if got := goldenFromAggregate(agg); got != want {
					t.Fatalf("shards=4 %s drifted from golden:\n got %+v\nwant %+v", c.name, got, want)
				}
				if !sameRecords(refRecs, recs) {
					t.Fatalf("shards=4 %s record stream differs", c.name)
				}
			}
		})
	}
}

func sameRecords(a, b []TrialRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func readGolden(t *testing.T, name string) goldenAggregate {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("golden_campaign_%s.json", name)))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	var g goldenAggregate
	if err := json.Unmarshal(buf, &g); err != nil {
		t.Fatal(err)
	}
	return g
}
