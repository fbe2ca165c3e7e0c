package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"gofi/internal/core"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// DurStat summarizes repeated wall-clock samples. Percentiles are exact
// (computed from the sorted samples, not bucketed), because overhead
// deltas of a few hundred nanoseconds would drown in histogram
// bucket-width error.
type DurStat struct {
	MinSec  float64 `json:"min_sec"`
	P50Sec  float64 `json:"p50_sec"`
	P95Sec  float64 `json:"p95_sec"`
	P99Sec  float64 `json:"p99_sec"`
	MeanSec float64 `json:"mean_sec"`
}

// durStat folds samples into a DurStat. Empty input yields zeros.
func durStat(samples []time.Duration) DurStat {
	if len(samples) == 0 {
		return DurStat{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var total time.Duration
	for _, d := range s {
		total += d
	}
	pick := func(q float64) float64 {
		i := int(q*float64(len(s)) + 0.5)
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i].Seconds()
	}
	return DurStat{
		MinSec:  s[0].Seconds(),
		P50Sec:  pick(0.50),
		P95Sec:  pick(0.95),
		P99Sec:  pick(0.99),
		MeanSec: total.Seconds() / float64(len(s)),
	}
}

// AllocStat reports heap traffic per timed operation: how many bytes and
// how many distinct allocations one inference costs. Measured from the
// runtime.MemStats TotalAlloc/Mallocs deltas around the timed region —
// both counters are cumulative, so the numbers are exact regardless of
// when the garbage collector runs.
type AllocStat struct {
	BytesPerOp  uint64 `json:"bytes_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
}

// measureAllocs runs fn (which performs ops operations) between two
// MemStats reads and averages the allocation deltas per operation.
func measureAllocs(ops int, fn func()) AllocStat {
	if ops <= 0 {
		return AllocStat{}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return AllocStat{
		BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(ops),
		AllocsPerOp: (after.Mallocs - before.Mallocs) / uint64(ops),
	}
}

// LayerOverheadConfig drives RunLayerOverhead.
type LayerOverheadConfig struct {
	// Model names the architecture (default resnet18).
	Model   string
	Classes int
	InSize  int
	Batch   int
	// Trials is the number of timed forward passes per mode (default 30;
	// percentiles need samples).
	Trials int
	Seed   int64
	// Metrics, when non-nil, receives the instrumented-mode per-layer
	// histograms (named "fi.<index>.<path>.forward_ns") so -metrics
	// snapshots include the raw distributions.
	Metrics *obs.Registry
}

func (c LayerOverheadConfig) canon() LayerOverheadConfig {
	if c.Model == "" {
		c.Model = "resnet18"
	}
	if c.Classes <= 0 {
		c.Classes = 10
	}
	if c.InSize <= 0 {
		c.InSize = 32
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Trials <= 0 {
		c.Trials = 30
	}
	return c
}

// LayerOverheadRow is one hooked layer's bare-vs-instrumented forward
// timing, from raw samples. "Bare" is a copy of the model with timing
// hooks only; "FI" adds the injector's (disarmed) instrumentation hooks,
// so the deltas isolate what the injection machinery itself costs at that
// layer. The minimum is the least noisy statistic a wall clock offers;
// the median shows what a typical pass pays.
type LayerOverheadRow struct {
	Layer      int     `json:"layer"`
	Path       string  `json:"path"`
	BareMinUs  float64 `json:"bare_min_us"`
	BareP50Us  float64 `json:"bare_p50_us"`
	FIMinUs    float64 `json:"fi_min_us"`
	FIP50Us    float64 `json:"fi_p50_us"`
	DeltaMinUs float64 `json:"delta_min_us"`
	DeltaP50Us float64 `json:"delta_p50_us"`
}

// LayerOverheadResult bundles the per-layer rows with whole-network
// timing for both modes.
type LayerOverheadResult struct {
	Model  string             `json:"model"`
	Trials int                `json:"trials"`
	Rows   []LayerOverheadRow `json:"rows"`
	Bare   DurStat            `json:"bare"`
	FI     DurStat            `json:"fi"`
	// Heap traffic per forward pass in each mode; the FI-minus-bare gap
	// shows what the instrumentation itself allocates.
	BareAlloc AllocStat `json:"bare_alloc"`
	FIAlloc   AllocStat `json:"fi_alloc"`
	// OverheadP50Sec is the whole-network p50 delta (FI − bare); the
	// paper's near-zero-overhead claim says this stays within noise.
	OverheadP50Sec float64 `json:"overhead_p50_sec"`
	// Int8 times the same bare forward on an int8-quantized copy of the
	// model (identical timing hooks, no injector), and Int8SpeedupP50 is
	// the bare-f32-over-int8 p50 ratio — the backend's raw inference
	// speedup on this architecture.
	Int8           DurStat `json:"int8"`
	Int8SpeedupP50 float64 `json:"int8_speedup_p50"`
}

// timedModel is one variant of the overhead study's network with raw
// per-layer and whole-forward samples.
type timedModel struct {
	model  nn.Layer
	layers [][]time.Duration // indexed by hookable walk order
	whole  []time.Duration
}

func (m *timedModel) forward(x *tensor.Tensor) {
	start := time.Now()
	nn.Run(m.model, x)
	m.whole = append(m.whole, time.Since(start))
}

// RunLayerOverhead measures per-layer forward time with and without the
// injector's (disarmed) instrumentation, upgrading the paper's single
// wall-clock Figure 3 number into per-layer deltas. The variants are
// copies of one network carrying identical timing hooks
// (core.ObserveLayers), so a delta isolates the injection hook itself —
// the quantity the near-zero-overhead claim is actually about — and they
// are timed in alternation, one pass each per round, so warm-up and
// frequency drift land on every variant alike instead of on whichever
// ran first. Statistics come from the raw samples: a histogram's log
// buckets are wider than the deltas being resolved.
func RunLayerOverhead(ctx context.Context, cfg LayerOverheadConfig) (LayerOverheadResult, error) {
	cfg = cfg.canon()
	res := LayerOverheadResult{Model: cfg.Model, Trials: cfg.Trials}
	x := tensor.RandUniform(rand.New(rand.NewSource(cfg.Seed+2)), -1, 1, cfg.Batch, 3, cfg.InSize, cfg.InSize)
	variant := func(prepare func(nn.Layer) error) (*timedModel, AllocStat, error) {
		model, err := models.Build(cfg.Model, rand.New(rand.NewSource(cfg.Seed+1)), cfg.Classes, cfg.InSize)
		if err != nil {
			return nil, AllocStat{}, err
		}
		nn.SetTraining(model, false)
		if err := prepare(model); err != nil {
			return nil, AllocStat{}, err
		}
		nn.Run(model, x) // warm-up
		// Heap traffic is read before the sample hooks go on: they append.
		alloc := measureAllocs(cfg.Trials, func() {
			for i := 0; i < cfg.Trials && ctx.Err() == nil; i++ {
				nn.Run(model, x)
			}
		})
		m := &timedModel{model: model, whole: make([]time.Duration, 0, cfg.Trials)}
		core.ObserveLayers(model, false, func(i int, _ string) func(time.Duration) {
			for len(m.layers) <= i {
				m.layers = append(m.layers, make([]time.Duration, 0, cfg.Trials))
			}
			return func(d time.Duration) { m.layers[i] = append(m.layers[i], d) }
		})
		return m, alloc, ctx.Err()
	}

	bare, bareAlloc, err := variant(func(nn.Layer) error { return nil })
	if err != nil {
		return res, err
	}
	var inj *core.Injector
	fi, fiAlloc, err := variant(func(m nn.Layer) (err error) {
		inj, err = core.New(m, core.Config{Batch: cfg.Batch, Height: cfg.InSize, Width: cfg.InSize, Seed: cfg.Seed})
		return err
	})
	if err != nil {
		return res, err
	}
	defer inj.Detach()
	// The int8 variant is the bare network quantized: the backend's raw
	// forward ratio, with the same timing hooks and no injector.
	int8, _, err := variant(func(m nn.Layer) error { return nn.QuantizeModel(m, x, nn.QuantizeOptions{}) })
	if err != nil {
		return res, err
	}
	res.BareAlloc, res.FIAlloc = bareAlloc, fiAlloc

	for i := 0; i < cfg.Trials; i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		bare.forward(x)
		fi.forward(x)
		int8.forward(x)
	}

	us := func(sec float64) float64 { return 1e6 * sec }
	for _, li := range inj.Layers() {
		b, f := durStat(bare.layers[li.Index]), durStat(fi.layers[li.Index])
		res.Rows = append(res.Rows, LayerOverheadRow{
			Layer:      li.Index,
			Path:       li.Path,
			BareMinUs:  us(b.MinSec),
			BareP50Us:  us(b.P50Sec),
			FIMinUs:    us(f.MinSec),
			FIP50Us:    us(f.P50Sec),
			DeltaMinUs: us(f.MinSec - b.MinSec),
			DeltaP50Us: us(f.P50Sec - b.P50Sec),
		})
		if cfg.Metrics != nil {
			hist := cfg.Metrics.Histogram(fmt.Sprintf("fi.%03d.%s.forward_ns", li.Index, li.Path))
			for _, d := range fi.layers[li.Index] {
				hist.Observe(int64(d))
			}
		}
	}
	res.Bare, res.FI, res.Int8 = durStat(bare.whole), durStat(fi.whole), durStat(int8.whole)
	res.OverheadP50Sec = res.FI.P50Sec - res.Bare.P50Sec
	if res.Int8.P50Sec > 0 {
		res.Int8SpeedupP50 = res.Bare.P50Sec / res.Int8.P50Sec
	}
	return res, nil
}
