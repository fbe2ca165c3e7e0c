package experiments

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/data"
)

// TestPrebuiltFixtureContract: a fixture a study trained itself — a tiny
// ibp.Net, and a resnet18 trained under per-layer injection — carries the
// same contract as a named one. On each, the records of the measured
// configuration (4 workers, prefix reuse on, auto schedule) equal the
// records of the reference configuration (1 worker, ScheduleSeq, reuse
// off) trial by trial, and a re-run reproduces them: the check bench/'s
// checkAgainstReference applies to named fixtures.
func TestPrebuiltFixtureContract(t *testing.T) {
	skipIfShort(t)
	dataset := func(noise float32, seed int64) *data.Classification {
		ds, err := data.NewClassification(data.ClassificationConfig{Classes: 4, Channels: 3, Size: 16, Noise: noise, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	for _, c := range []struct {
		name    string
		fixture func() (Fixture, error)
		arm     ArmFunc
	}{
		{"ibp.Net", func() (Fixture, error) {
			cfg := Fig6Config{InSize: 16, Classes: 4, TrainEpochs: 2, Seed: 5}.canon()
			return ibpFixture(cfg, dataset(0.2, cfg.Seed), 0.1, 0.125)
		}, armFirstTwoLayers},
		{"resnet18 trained under injection", func() (Fixture, error) {
			cfg := Table1Config{Model: "resnet18", Classes: 4, InSize: 16, Epochs: 2, TrainSize: 128, Noise: 0.2, Seed: 6}.canon()
			fx, _, err := trainTwin(cfg, dataset(cfg.Noise, cfg.Seed), true)
			return fx, err
		}, armNeuron(core.BitFlip{Bit: core.RandomBit})},
	} {
		t.Run(c.name, func(t *testing.T) {
			fx, err := c.fixture()
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := GenericCampaignConfig{
				Model: c.name, InSize: 16, Trials: 120, Workers: 4, Seed: 7, Arm: c.arm, PrefixReuse: true,
			}.canon()
			if err != nil {
				t.Fatal(err)
			}
			env, err := prepareOnFixture(cfg, fx)
			if err != nil {
				t.Fatal(err)
			}
			ref := *env
			ref.Cfg.Workers, ref.Cfg.Schedule, ref.Cfg.PrefixReuse = 1, campaign.ScheduleSeq, false
			want, err := envRecords(&ref, ShardRun{Trials: cfg.Trials})
			if err != nil {
				t.Fatal(err)
			}
			changed := 0
			for _, r := range want {
				if r.Outcome.Top1Changed {
					changed++
				}
			}
			if changed == 0 {
				t.Fatal("weak fixture: no trial of the reference run changed Top-1")
			}
			for _, run := range []string{"measured", "re-run"} {
				got, err := envRecords(env, ShardRun{Trials: cfg.Trials})
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s trial %d:\n got  %+v\n want %+v", run, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// fixtureGoldenRow is one model's leg of a fixture study, its float64s
// pinned by bit pattern.
type fixtureGoldenRow struct {
	Label    string `json:"label"`
	Trials   int    `json:"trials"`
	Mis      int    `json:"mis"`
	CleanAcc uint64 `json:"clean_acc_bits"`
	Rate     uint64 `json:"rate_bits"`
	CILo     uint64 `json:"ci_lo_bits"`
	CIHi     uint64 `json:"ci_hi_bits"`
}

func goldenLeg(label string, cleanAcc float64, s LegStat) fixtureGoldenRow {
	return fixtureGoldenRow{
		Label: label, Trials: s.Trials, Mis: s.Mis, CleanAcc: math.Float64bits(cleanAcc),
		Rate: math.Float64bits(s.Rate), CILo: math.Float64bits(s.CILo), CIHi: math.Float64bits(s.CIHi),
	}
}

// TestFixtureStudiesGolden pins the rows of the two studies that run on
// pre-built fixtures, Fig. 6 and Table I, at reduced scale. Regenerate
// deliberately with:
//
//	go test ./internal/experiments -run TestFixtureStudiesGolden -update
func TestFixtureStudiesGolden(t *testing.T) {
	skipIfShort(t)
	ctx := context.Background()
	goldenFile := filepath.Join("testdata", "golden_fixture_studies.json")
	fig6, err := RunFig6(ctx, Fig6Config{
		Alphas: []float64{0.1}, Epsilons: []float32{0.125}, Trials: 400,
		InSize: 16, Classes: 4, TrainEpochs: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	table1, err := RunTable1(ctx, Table1Config{
		Model: "resnet18", Classes: 4, InSize: 16, Epochs: 2, TrainSize: 128, BatchSize: 16,
		EvalTrials: 400, Noise: 0.2, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := struct {
		Fig6   []fixtureGoldenRow `json:"fig6"`
		Table1 []fixtureGoldenRow `json:"table1"`
	}{
		Fig6: []fixtureGoldenRow{
			goldenLeg("baseline", fig6.BaselineAcc, fig6.Rows[0].Base),
			goldenLeg("ibp a=0.1 e=0.125", fig6.Rows[0].CleanAcc, fig6.Rows[0].IBP),
		},
		Table1: []fixtureGoldenRow{
			goldenLeg("baseline", table1.BaselineAcc, table1.Baseline),
			goldenLeg("fi-trained", table1.FIAcc, table1.FI),
		},
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *updateScenarioGolden {
		if err := os.WriteFile(goldenFile, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFile)
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if string(raw) != string(want) {
		t.Fatalf("fixture-study rows drifted from golden %s:\n got: %s\nwant: %s", goldenFile, raw, want)
	}
}
