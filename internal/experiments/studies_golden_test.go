package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gofi/internal/campaign/stats"
	"gofi/internal/core"
)

// studyGoldenRow is one study row with its float64s pinned by bit
// pattern, the shape golden_studies.json commits.
type studyGoldenRow struct {
	Label     string `json:"label"`
	Trials    int    `json:"trials"`
	Top1Mis   int    `json:"top1_mis"`
	NonFinite int    `json:"non_finite"`
	OutOfTop5 int    `json:"out_of_top5,omitempty"`
	StopTrial int    `json:"stop_trial"`
	CleanAcc  uint64 `json:"clean_acc_bits,omitempty"`
	Rate      uint64 `json:"rate_bits"`
	CILo      uint64 `json:"ci_lo_bits"`
	CIHi      uint64 `json:"ci_hi_bits"`
}

type studyGoldenCase struct {
	Case string           `json:"case"`
	Fig4 []studyGoldenRow `json:"fig4"`
	Bits []studyGoldenRow `json:"bits"`
	// BitsFP32 is the FP32-dtype bit study (f32 backend only), where the
	// exponent bits misclassify often enough to make the rows strong
	// evidence.
	BitsFP32 []studyGoldenRow `json:"bits_fp32,omitempty"`
}

// TestStudyGolden pins RunFig4 (alexnet) and RunBitStudy rows on the
// tiny fixture, per backend, with and without a stop rule (stop indices
// included). The file was recorded before the studies moved onto
// PrepareGenericCampaign + CampaignEnv.Run and must keep passing
// unchanged. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestStudyGolden -update
func TestStudyGolden(t *testing.T) {
	skipIfShort(t)
	ctx := context.Background()
	goldenFile := filepath.Join("testdata", "golden_studies.json")
	var got []studyGoldenCase
	for _, backend := range []string{"f32", "int8"} {
		for _, stop := range []bool{false, true} {
			c := studyGoldenCase{Case: fmt.Sprintf("%s stop=%v", backend, stop)}
			fig4 := Fig4Config{
				Models: []string{"alexnet"}, TrialsPerModel: 400, Workers: 2,
				Classes: 4, InSize: 16, TrainEpochs: 6, Noise: 1, Seed: 3, Backend: backend,
			}
			bits := BitStudyConfig{
				Model: "alexnet", Classes: 4, InSize: 16, TrainEpochs: 6, Noise: 1,
				TrialsPerBit: 100, Workers: 2, DType: core.INT8, Seed: 12, Backend: backend,
			}
			if stop {
				fig4.Stop = stats.StopRule{HalfWidth: 0.03, Confidence: 0.9, MinTrials: 40}
				bits.Stop = fig4.Stop
			}
			frows, err := RunFig4(ctx, fig4)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range frows {
				c.Fig4 = append(c.Fig4, studyGoldenRow{
					Label: r.Model, Trials: r.Trials, Top1Mis: r.Top1Mis, NonFinite: r.NonFinite,
					OutOfTop5: r.OutOfTop5, StopTrial: r.StopTrial, CleanAcc: math.Float64bits(r.CleanAcc),
					Rate: math.Float64bits(r.Rate), CILo: math.Float64bits(r.CILo), CIHi: math.Float64bits(r.CIHi),
				})
			}
			bitRows := func(cfg BitStudyConfig) []studyGoldenRow {
				brows, err := RunBitStudy(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out []studyGoldenRow
				for _, r := range brows {
					out = append(out, studyGoldenRow{
						Label: fmt.Sprintf("bit %d", r.Bit), Trials: r.Trials, Top1Mis: r.Top1Mis, NonFinite: r.NonFinite,
						StopTrial: r.StopTrial,
						Rate:      math.Float64bits(r.Rate), CILo: math.Float64bits(r.CILo), CIHi: math.Float64bits(r.CIHi),
					})
				}
				return out
			}
			c.Bits = bitRows(bits)
			if backend == "f32" {
				bits.DType, bits.TrialsPerBit = core.FP32, 60
				c.BitsFP32 = bitRows(bits)
			}
			got = append(got, c)
		}
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
		t.Fatalf("study rows drifted from golden %s:\n got: %s\nwant: %s", goldenFile, raw, want)
	}
}

// TestLayerVulnDeterministic: the layer study is an engine campaign per
// layer, so its rows — stop indices included — are a function of (Seed,
// TrialsPerLayer) alone. One trained fixture, both granularities, every
// Workers {1, 8} × prefix-reuse on/off cell against the Workers 1 /
// reuse off reference.
func TestLayerVulnDeterministic(t *testing.T) {
	skipIfShort(t)
	ctx := context.Background()
	env, err := PrepareGenericCampaign(ctx, GenericCampaignConfig{
		Model: "alexnet", Classes: 4, InSize: 16, TrainEpochs: 6, Noise: 1,
		Trials: 60, DType: core.FP32, Arm: armLayer(0, GranNeuron), Seed: 8,
		Stop: stats.StopRule{HalfWidth: 0.04, Confidence: 0.9, MinTrials: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, gran := range []Granularity{GranNeuron, GranFMap} {
		var want []LayerVulnRow
		mis, stopped := 0, 0
		for _, workers := range []int{1, 8} {
			for _, reuse := range []bool{false, true} {
				cell := *env
				cell.Cfg.Workers, cell.Cfg.PrefixReuse = workers, reuse
				got, err := layerVulnRows(ctx, &cell, gran)
				if err != nil {
					t.Fatalf("%s workers=%d reuse=%v: %v", gran, workers, reuse, err)
				}
				if want == nil {
					want = got
					for _, r := range got {
						mis += r.Mis
						if r.StopTrial >= 0 {
							stopped++
						}
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s workers=%d reuse=%v rows differ from workers=1 reuse=false:\n got %+v\nwant %+v", gran, workers, reuse, got, want)
				}
			}
		}
		// Equal all-zero rows would prove little.
		if mis == 0 || stopped == 0 || stopped == len(want) {
			t.Errorf("%s: weak fixture: %d misclassifications, %d of %d layers stopped early", gran, mis, stopped, len(want))
		}
	}
}
