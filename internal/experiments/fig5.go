package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/detect"
	"gofi/internal/obs"
	"gofi/internal/scenario"
)

// Fig5Config drives the object-detection perturbation study.
type Fig5Config struct {
	// Scenes evaluated under clean and injected inference.
	Scenes int
	// InjectionsPerScene repeats the per-layer injection this many times
	// per scene (fresh sites each time).
	InjectionsPerScene int
	// SceneSize and Classes size the synthetic detection dataset.
	SceneSize, Classes int
	// TrainEpochs for the detector before the study.
	TrainEpochs int
	// ValueRange is the uniform FP32 injection range ±ValueRange (the
	// paper uses "a uniformly chosen random FP32 value"; enormous values
	// make the corruption visible, as in their Figure 5b).
	ValueRange float32
	Seed       int64
	// Metrics, when non-nil, is attached to the study's injector so
	// perturbation tallies accumulate (see core.Metric*).
	Metrics *obs.Registry
	// Stop, when on, halts the study early once the phantom-producing-run
	// rate's confidence interval is as tight as the rule asks (a run
	// counts as corrupted when its injections produce at least one phantom
	// object). Runs fold into the rule in run order, so the stop index is
	// deterministic in the study seed. Scenes * InjectionsPerScene then
	// caps the budget.
	Stop stats.StopRule
	// Scenario, when non-nil, replaces the hand-wired per-layer
	// random-FP32 arming with the scenario's compiled selector and
	// per-layer error models. The scenario must stay inside the Figure 5
	// shape: neuron scope, fp32 value domain, f32 backend, no observers
	// (the study is not a campaign.Run; observer folds belong to
	// gofi-campaign). Its model/run blocks are ignored — the detector
	// fixture and the study's own budgets apply. Each injected run
	// consumes the scenario's draws from the same shared stream the
	// hand-wired study would have used.
	Scenario *scenario.Scenario
}

func (c Fig5Config) canon() Fig5Config {
	if c.Scenes <= 0 {
		c.Scenes = 20
	}
	if c.InjectionsPerScene <= 0 {
		c.InjectionsPerScene = 3
	}
	if c.SceneSize <= 0 {
		c.SceneSize = 32
	}
	if c.Classes <= 0 {
		c.Classes = 3
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 10
	}
	if c.ValueRange <= 0 {
		c.ValueRange = 1e4
	}
	return c
}

// Fig5Result aggregates the detection study.
type Fig5Result struct {
	// Clean-inference quality.
	CleanTP, CleanPhantoms, CleanMissed, CleanMisclass int
	// Injected-inference quality (per-layer random FP32 injections).
	FITP, FIPhantoms, FIMissed, FIMisclass int
	// Scenes and injected runs evaluated.
	Scenes, InjectedRuns int
	// StopTrial is the run index Stop fired on (-1 when it is off or the
	// budget ran out first).
	StopTrial int
	// ExampleClean / ExampleFI are the detection lists of the first scene
	// (the study's qualitative exhibit, standing in for Figure 5a/5b).
	ExampleClean, ExampleFI []detect.Detection
	ExampleGT               []data.Box
}

// RunFig5 reproduces Figure 5's finding: a clean detector localizes the
// scene's objects, while one random-FP32 neuron injection per layer
// produces phantom objects with arbitrary classes.
func RunFig5(ctx context.Context, cfg Fig5Config) (Fig5Result, error) {
	cfg = cfg.canon()
	if err := cfg.Stop.Validate(); err != nil {
		return Fig5Result{}, err
	}
	if cfg.Scenario != nil {
		s := cfg.Scenario.Canon()
		if err := s.Validate(); err != nil {
			return Fig5Result{}, err
		}
		if s.Fault.Scope != "neuron" {
			return Fig5Result{}, fmt.Errorf("fig5 scenarios cover neuron faults only, got scope %q", s.Fault.Scope)
		}
		if s.Fault.Backend != "f32" || s.Fault.DType != "fp32" {
			return Fig5Result{}, fmt.Errorf("fig5 is the FP32 detection study; scenario needs backend f32 and dtype fp32, got %s/%s", s.Fault.Backend, s.Fault.DType)
		}
		if len(s.Observers) != 0 {
			return Fig5Result{}, fmt.Errorf("fig5 scenarios take no observers; run them through gofi-campaign")
		}
		cfg.Scenario = &s
	}
	scenes, err := data.NewScenes(data.SceneConfig{
		Classes:    cfg.Classes,
		Size:       cfg.SceneSize,
		MaxObjects: 2,
		MinExtent:  cfg.SceneSize / 4,
		MaxExtent:  cfg.SceneSize * 7 / 16,
		Noise:      0.05,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return Fig5Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	det, _, err := detect.NewTrained(rng, scenes, detect.Config{}, detect.TrainConfig{
		Epochs: cfg.TrainEpochs, BatchSize: 8, Scenes: 64, LR: 0.003, Momentum: 0.9,
	})
	if err != nil {
		return Fig5Result{}, fmt.Errorf("fig5 detector training: %w", err)
	}
	inj, err := core.New(det.Model(), core.Config{
		Batch: 1, Height: cfg.SceneSize, Width: cfg.SceneSize, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return Fig5Result{}, err
	}
	defer inj.Detach()
	inj.SetMetrics(cfg.Metrics)

	var compiled *scenario.Compiled
	if cfg.Scenario != nil {
		compiled, err = scenario.Compile(*cfg.Scenario, inj.Layers())
		if err != nil {
			return Fig5Result{}, err
		}
	}

	var watcher *stats.Sequential
	if cfg.Stop.On() {
		watcher = stats.NewSequential(cfg.Stop)
	}

	siteRng := rand.New(rand.NewSource(cfg.Seed + 3))
	var res Fig5Result
	res.StopTrial = -1
	// stopped latches when the stopping rule fires; runs after the stop
	// index are never folded, so the recorded stream is an exact prefix
	// of run order.
	stopped := false
	for s := 0; s < cfg.Scenes && !stopped; s++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		img, gts := scenes.Scene(10_000 + s)
		x := img.Reshape(1, 3, cfg.SceneSize, cfg.SceneSize)

		inj.Reset()
		clean := det.Detect(x)[0]
		cm := detect.Match(clean, gts)
		res.CleanTP += cm.TruePositives
		res.CleanPhantoms += cm.Phantoms
		res.CleanMissed += cm.Missed
		res.CleanMisclass += cm.Misclassified

		for i := 0; i < cfg.InjectionsPerScene && !stopped; i++ {
			inj.Reset()
			if compiled != nil {
				if err := compiled.ArmTrial(inj, siteRng, s*cfg.InjectionsPerScene+i); err != nil {
					return Fig5Result{}, err
				}
			} else if _, err := inj.InjectRandomNeuronPerLayer(siteRng, core.RandomValue{Lo: -cfg.ValueRange, Hi: cfg.ValueRange}); err != nil {
				return Fig5Result{}, err
			}
			faulty := det.Detect(x)[0]
			fm := detect.Match(faulty, gts)
			res.FITP += fm.TruePositives
			res.FIPhantoms += fm.Phantoms
			res.FIMissed += fm.Missed
			res.FIMisclass += fm.Misclassified
			res.InjectedRuns++
			if s == 0 && i == 0 {
				res.ExampleClean = clean
				res.ExampleFI = faulty
				res.ExampleGT = gts
			}
			if watcher != nil {
				watcher.Observe(s*cfg.InjectionsPerScene+i, fm.Phantoms > 0, false)
				if watcher.ShouldStop() {
					stopped = true
					res.StopTrial = watcher.StopTrial()
				}
			}
		}
		res.Scenes++
	}
	inj.Reset()
	return res, nil
}
