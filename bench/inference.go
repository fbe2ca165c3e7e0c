package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gofi/internal/core"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/tensor"
)

// inferenceSizes are the paper's Figure 3 at one network.
type inferenceSizes struct {
	model                         string
	classes, size, batch          int
	warmup, minRounds, setupTimes int
}

func inferenceSizesFor(toy bool) inferenceSizes {
	if toy {
		return inferenceSizes{model: "alexnet", classes: 10, size: 16, batch: 2, warmup: 2, minRounds: 5, setupTimes: 1}
	}
	return inferenceSizes{model: "resnet18", classes: 10, size: 32, batch: 8, warmup: 20, minRounds: 30, setupTimes: 5}
}

// hookVariants is the Figure 3 fixture: two instances of one network
// with identical weights, one bare and one with the injector attached.
type hookVariants struct {
	bare, hooked nn.Layer
	inj          *core.Injector
	x            *tensor.Tensor
	rng          *rand.Rand
}

func buildHookVariants(sz inferenceSizes, seed int64) (*hookVariants, error) {
	build := func() (nn.Layer, error) {
		m, err := models.Build(sz.model, rand.New(rand.NewSource(seed)), sz.classes, sz.size)
		if err == nil {
			nn.SetTraining(m, false)
		}
		return m, err
	}
	bare, err := build()
	if err != nil {
		return nil, err
	}
	hooked, err := build()
	if err != nil {
		return nil, err
	}
	inj, err := core.New(hooked, core.Config{Batch: sz.batch, Height: sz.size, Width: sz.size, Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	return &hookVariants{bare: bare, hooked: hooked, inj: inj, rng: rng,
		x: tensor.RandUniform(rng, -1, 1, sz.batch, 3, sz.size, sz.size)}, nil
}

// roundResult is one pass over the three variants.
type roundResult struct {
	bare, disarmed, armed float64 // seconds
	armedOut              *tensor.Tensor
	failed                int
}

// round runs the three variants once, bare first. A forward fails when
// its logits are not finite or when the disarmed model does not
// reproduce the bare one bit for bit.
func (h *hookVariants) round(tr *tracer, parent, run int) (roundResult, error) {
	var r roundResult
	timed := func(name string, m nn.Layer) (*tensor.Tensor, float64) {
		id := tr.start(name, parent, run)
		t0 := time.Now()
		out := nn.Run(m, h.x)
		d := time.Since(t0).Seconds()
		tr.end(id)
		return out, d
	}
	bareOut, d := timed("nn.Run.bare", h.bare)
	r.bare = d
	h.inj.Reset()
	disarmedOut, d := timed("nn.Run.disarmed", h.hooked)
	r.disarmed = d
	// Re-armed per forward, outside the timed call, as a campaign would.
	if _, err := h.inj.InjectRandomNeuron(h.rng, core.DefaultRandomValue()); err != nil {
		return r, err
	}
	r.armedOut, r.armed = timed("nn.Run.armed", h.hooked)
	h.inj.Reset()
	if bareOut.CountNonFinite() > 0 {
		r.failed++
	}
	if disarmedOut.CountNonFinite() > 0 || !disarmedOut.Equal(bareOut) {
		r.failed++
	}
	if r.armedOut.CountNonFinite() > 0 {
		r.failed++
	}
	return r, nil
}

// hookLoop is a closed loop of rounds and its samples.
type hookLoop struct {
	bare, disarmed, armed []float64
	wall                  float64
	failed                int
}

func (h *hookVariants) loop(seconds float64, minRounds int, tr *tracer, parent int) (hookLoop, error) {
	var l hookLoop
	win := openWindow(seconds)
	for n := 0; n < minRounds || win.elapsed() < win.limit; n++ {
		r, err := h.round(tr, parent, n+1)
		if err != nil {
			return l, err
		}
		l.bare, l.disarmed, l.armed = append(l.bare, r.bare), append(l.disarmed, r.disarmed), append(l.armed, r.armed)
		l.failed += r.failed
	}
	l.wall = win.elapsed().Seconds()
	return l, nil
}

func runInferenceWorkload(ctx context.Context, o options, e2e, layers *metricSet, tr *tracer) (run, error) {
	sz := inferenceSizesFor(o.toy)
	root := tr.start("bench."+o.workload, 0, 0)
	defer tr.end(root)

	var h *hookVariants
	var setups []float64
	for i := 0; i < sz.setupTimes; i++ {
		id := tr.start("models.Build+core.New", root, 0)
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		h, err = buildHookVariants(sz, o.seed)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return run{}, err
		}
	}

	out := run{correct: true, sizes: map[string]int{
		"batch": sz.batch, "classes": sz.classes, "in_size": sz.size, "warmup_rounds": sz.warmup,
	}, detail: map[string]float64{}}

	// Warm-up doubles as the output check: its rounds are a fixed number,
	// so the digest over their logits depends on the seed alone.
	digest := sha256.New()
	for i := 0; i < sz.warmup; i++ {
		r, err := h.round(nil, 0, 0)
		if err != nil {
			return run{}, err
		}
		if r.failed > 0 {
			return run{}, fmt.Errorf("warm-up round %d: %d of 3 forwards failed their output check", i, r.failed)
		}
		for _, v := range r.armedOut.Data() {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			digest.Write(b[:])
		}
	}
	out.digest = fmt.Sprintf("%x", digest.Sum(nil))

	seconds := o.seconds
	if o.trace {
		seconds /= 2 // half plain, half traced: the difference is the instrument's cost
	}
	plain, err := h.loop(seconds, sz.minRounds, nil, 0)
	if err != nil {
		return run{}, err
	}
	out.attempted, out.failed = 3*len(plain.bare), plain.failed
	out.detail["rounds"] = float64(len(plain.bare))
	e2e.set("setup_s", median(setups))
	e2e.set("ops_per_s", float64(out.attempted)/plain.wall)
	e2e.set("latency_p50_ms", median(plain.disarmed)*1e3)

	if o.trace {
		traced, err := h.loop(seconds, sz.minRounds, tr, root)
		if err != nil {
			return run{}, err
		}
		out.attempted += 3 * len(traced.bare)
		out.failed += traced.failed
		out.detail["traced_rounds"] = float64(len(traced.bare))
		layers.set("forward_p50_ms", median(traced.disarmed)*1e3)
		layers.set("forward_p90_ms", quantile(traced.disarmed, 0.9)*1e3)
		layers.set("disarmed_over_bare", median(traced.disarmed)/median(traced.bare))
		layers.set("armed_over_bare", median(traced.armed)/median(traced.bare))
		layers.set("bench.trace_overhead_pct", (median(traced.disarmed)-median(plain.disarmed))/median(plain.disarmed)*100)
		if _, _, err := probeModel(probingFor(o.toy), h.inj, h.x, h.x, false, o.seed, root, layers, tr); err != nil {
			return run{}, err
		}
	}
	return out, nil
}
