package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gofi/internal/core"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/tensor"
)

// Fig3Config drives the runtime-overhead study.
type Fig3Config struct {
	// Trials inferences are averaged per (network, backend, mode) cell.
	Trials int
	// Batch is the inference batch size (the paper's Figure 3 uses 1).
	Batch int
	// Entries restricts the study to a subset of the 19 networks (nil =
	// all).
	Entries []models.Fig3Entry
	// ParallelWorkers configures the parallel backend (default: NumCPU).
	ParallelWorkers int
	Seed            int64
}

// Fig3Row is one cell group of Figure 3. BaseSec/FISec/Overhead keep
// the paper's mean-wall-clock framing; Base/FI carry the full
// repeated-run distribution (min/p50/p95/p99), since a mean alone
// cannot distinguish constant instrumentation cost from scheduler
// noise.
type Fig3Row struct {
	Label    string  `json:"label"`
	Dataset  string  `json:"dataset"`
	Backend  string  `json:"backend"` // "serial" (CPU stand-in) or "parallel" (GPU stand-in)
	BaseSec  float64 `json:"base_sec"`
	FISec    float64 `json:"fi_sec"`
	Overhead float64 `json:"overhead_sec"` // FISec − BaseSec (means)
	Base     DurStat `json:"base_stat"`
	FI       DurStat `json:"fi_stat"`
	// Heap traffic per inference with and without the armed fault.
	BaseAlloc AllocStat `json:"base_alloc"`
	FIAlloc   AllocStat `json:"fi_alloc"`
}

// RunFig3 measures inference wall-clock with and without a single armed
// random-neuron random-value injection, per network and backend. It
// reproduces the paper's Figure 3 claim: instrumented inference runs at
// native speed, with overhead inside measurement noise on both a slow
// (serial) and a fast (parallel) platform.
func RunFig3(ctx context.Context, cfg Fig3Config) ([]Fig3Row, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 5
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	if cfg.ParallelWorkers <= 0 {
		cfg.ParallelWorkers = runtime.NumCPU()
	}
	entries := cfg.Entries
	if entries == nil {
		entries = models.Fig3Registry()
	}

	var rows []Fig3Row
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		model, err := models.Build(e.Model, rng, e.Classes, e.InSize)
		if err != nil {
			return nil, err
		}
		nn.SetTraining(model, false)
		inj, err := core.New(model, core.Config{
			Batch: cfg.Batch, Height: e.InSize, Width: e.InSize, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("fig3 %s/%s: %w", e.Label, e.Dataset, err)
		}
		for _, backend := range []struct {
			name    string
			workers int
		}{
			{"serial", 1},
			{"parallel", cfg.ParallelWorkers},
		} {
			prev := tensor.SetWorkers(backend.workers)
			base, fi, baseAlloc, fiAlloc := timeInference(model, inj, e, cfg)
			tensor.SetWorkers(prev)
			rows = append(rows, Fig3Row{
				Label:     e.Label,
				Dataset:   e.Dataset,
				Backend:   backend.name,
				BaseSec:   base.MeanSec,
				FISec:     fi.MeanSec,
				Overhead:  fi.MeanSec - base.MeanSec,
				Base:      base,
				FI:        fi,
				BaseAlloc: baseAlloc,
				FIAlloc:   fiAlloc,
			})
		}
		inj.Detach()
	}
	return rows, nil
}

// timeInference times cfg.Trials rounds on one random input, each round
// one bare inference and one with a random-neuron fault armed, flipping
// which goes first every round (as RunLayerOverhead alternates its
// variants), so warm-up and frequency drift land on both modes alike
// instead of on whichever ran second. It returns the per-mode samples
// folded into DurStats and each mode's heap traffic, measured in a
// pre-pass of cfg.Trials inferences per mode.
func timeInference(model nn.Layer, inj *core.Injector, e models.Fig3Entry, cfg Fig3Config) (base, fi DurStat, baseAlloc, fiAlloc AllocStat) {
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	x := tensor.RandUniform(rng, -1, 1, cfg.Batch, 3, e.InSize, e.InSize)
	run := func(armed bool) time.Duration {
		inj.Reset()
		if armed {
			// Re-armed per inference, as a campaign would.
			if _, err := inj.InjectRandomNeuron(rng, core.DefaultRandomValue()); err != nil {
				panic(fmt.Sprintf("fig3: arming validated site failed: %v", err))
			}
		}
		start := time.Now()
		nn.Run(model, x)
		return time.Since(start)
	}
	nn.Run(model, x) // warm-up, excluded from timing
	allocs := func(armed bool) AllocStat {
		return measureAllocs(cfg.Trials, func() {
			for range cfg.Trials {
				run(armed)
			}
		})
	}
	baseAlloc, fiAlloc = allocs(false), allocs(true)

	bs, fs := make([]time.Duration, cfg.Trials), make([]time.Duration, cfg.Trials)
	for t := range bs {
		if t%2 == 0 {
			bs[t], fs[t] = run(false), run(true)
		} else {
			fs[t], bs[t] = run(true), run(false)
		}
	}
	inj.Reset()
	return durStat(bs), durStat(fs), baseAlloc, fiAlloc
}

// BatchSweepRow is one batch-size point of the §III-C sweep.
type BatchSweepRow struct {
	Batch    int     `json:"batch"`
	BaseSec  float64 `json:"base_sec"`
	FISec    float64 `json:"fi_sec"`
	Overhead float64 `json:"overhead_sec"`
	Base     DurStat `json:"base_stat"`
	FI       DurStat `json:"fi_stat"`
	// Heap traffic per inference with and without the armed fault.
	BaseAlloc AllocStat `json:"base_alloc"`
	FIAlloc   AllocStat `json:"fi_alloc"`
}

// RunBatchSweep reproduces the §III-C batching study on one network:
// wall-clock with and without injection as batch size grows, expecting
// the amortized per-model instrumentation cost the paper reports.
func RunBatchSweep(ctx context.Context, model string, inSize int, batches []int, trials int, seed int64) ([]BatchSweepRow, error) {
	if len(batches) == 0 {
		batches = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if trials <= 0 {
		trials = 3
	}
	var rows []BatchSweepRow
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		rng := rand.New(rand.NewSource(seed))
		m, err := models.Build(model, rng, 10, inSize)
		if err != nil {
			return nil, err
		}
		nn.SetTraining(m, false)
		inj, err := core.New(m, core.Config{Batch: b, Height: inSize, Width: inSize, Seed: seed})
		if err != nil {
			return nil, err
		}
		e := models.Fig3Entry{Model: model, Label: model, InSize: inSize}
		cfg := Fig3Config{Trials: trials, Batch: b, Seed: seed}
		base, fi, baseAlloc, fiAlloc := timeInference(m, inj, e, cfg)
		inj.Detach()
		rows = append(rows, BatchSweepRow{
			Batch: b, BaseSec: base.MeanSec, FISec: fi.MeanSec,
			Overhead: fi.MeanSec - base.MeanSec, Base: base, FI: fi,
			BaseAlloc: baseAlloc, FIAlloc: fiAlloc,
		})
	}
	return rows, nil
}
