package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gofi/internal/campaign"
	"gofi/internal/campaign/sched"
	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/experiments"
	"gofi/internal/nn"
	"gofi/internal/report"
	"gofi/internal/scenario"
	"gofi/internal/serialize"
	"gofi/internal/tensor"
)

// The layer probes time calls into each package's exported functions on
// the workload's own model and shapes. They run in the traced run only,
// after the workload's loop, single-threaded from bench code.

// probing is how long a probe samples: at least samples raw samples and
// at least budget of wall clock.
type probing struct {
	samples int
	budget  time.Duration
}

func probingFor(toy bool) probing {
	if toy {
		return probing{samples: 5, budget: time.Millisecond}
	}
	return probing{samples: 50, budget: 150 * time.Millisecond}
}

// medianOf times fn and returns the median sample in seconds.
func (p probing) medianOf(fn func()) float64 { return median(timeCalls(p.samples, p.budget, fn)) }

// medianPer is medianOf for calls far shorter than a clock reading: each
// sample times n calls and the result is per call.
func (p probing) medianPer(n int, fn func()) float64 {
	return p.medianOf(func() {
		for i := 0; i < n; i++ {
			fn()
		}
	}) / float64(n)
}

// medianOfFew is medianOf for calls that take milliseconds each.
func (p probing) medianOfFew(fn func()) float64 { return median(timeCalls(5, p.budget, fn)) }

// probeEnvLayers probes the layers under a prepared campaign: the
// model-level packages on a fresh replica, and the small packages a
// campaign passes through on the environment's own trial stream.
func probeEnvLayers(env *experiments.CampaignEnv, o options, parent int, layers *metricSet, tr *tracer) error {
	p := probingFor(o.toy)
	inj, err := env.NewReplica(0)
	if err != nil {
		return err
	}
	x, _ := env.Source.Batch(env.Eligible[0], 1)
	calib, _ := env.Source.Batch(0, 8)
	// Campaign replicas reuse their per-layer output buffers; so does the
	// probe.
	nn.SetOutputReuse(inj.Model(), true)
	nodesNS, cuts, err := probeModel(p, inj, x, calib, env.Cfg.ActZeroPoint, env.Cfg.Seed, parent, layers, tr)
	if err != nil {
		return err
	}
	return probeSmallPackages(p, env, nodesNS, cuts, o.outDir, parent, layers, tr)
}

// probeModel takes the core, nn and tensor numbers on one hooked model
// and a batch-1 input. It returns the model's per-chain-node median
// costs on the backend the workload runs and each hooked layer's chain
// cut. The injector is detached when it returns.
func probeModel(p probing, inj *core.Injector, x, calib *tensor.Tensor, actZP bool, seed int64, parent int, layers *metricSet, tr *tracer) (nodesNS []int64, cuts []int, err error) {
	id := tr.start("bench.probe_model", parent, 0)
	defer tr.end(id)
	model, cfg := inj.Model(), inj.Config()
	nn.SetTraining(model, false)
	rng := rand.New(rand.NewSource(seed))
	ms := func(fn func()) float64 { return p.medianOf(fn) * 1e3 }
	us := func(fn func()) float64 { return p.medianPer(100, fn) * 1e6 }

	// core: what the hooks and the arming cost around a forward.
	sid := tr.start("core", id, 0)
	inj.Reset()
	layers.set("core.forward_disarmed_ms", ms(func() { nn.Run(model, x) }))
	var armErr error
	arm := func() {
		inj.Reset()
		if _, e := inj.InjectRandomNeuron(rng, core.DefaultRandomValue()); e != nil {
			armErr = e
		}
	}
	// Arming is outside the timed call, as in the paper's Figure 3.
	var armed []float64
	for i := 0; i < p.samples; i++ {
		arm()
		t0 := time.Now()
		nn.Run(model, x)
		armed = append(armed, time.Since(t0).Seconds())
	}
	layers.set("core.forward_armed_ms", median(armed)*1e3)
	layers.set("core.arm_reset_us", us(func() { arm(); inj.Reset() }))
	layers.set("core.weight_arm_restore_us", us(func() {
		if _, e := inj.InjectRandomWeight(rng, core.DefaultRandomValue()); e != nil {
			armErr = e
		}
		inj.Reset()
	}))
	runner, err := core.NewPrefixRunner(inj, 64<<20)
	if err != nil {
		return nil, nil, err
	}
	layers.set("core.prefix_warm_ms", ms(func() {
		if _, e := runner.Warm(0, x); e != nil {
			armErr = e
		}
	}))
	// An armed forward from the warmed store, over uniformly drawn sites:
	// the mean suffix a neuron campaign pays.
	var resumed []float64
	for i := 0; i < 2*p.samples; i++ {
		arm()
		t0 := time.Now()
		if _, e := runner.Forward(0, x); e != nil {
			armErr = e
		}
		resumed = append(resumed, time.Since(t0).Seconds())
	}
	layers.set("core.prefix_forward_ms", median(resumed)*1e3)
	inj.Reset()
	if armErr != nil {
		return nil, nil, fmt.Errorf("core probe: %w", armErr)
	}
	plan := runner.Plan()
	for l := range inj.Layers() {
		cuts = append(cuts, plan.CutFor(l))
	}
	inj.Detach()
	layers.set("core.forward_bare_ms", ms(func() { nn.Run(model, x) }))
	var newErr error
	layers.set("core.new_profile_ms", p.medianOfFew(func() {
		fresh, e := core.New(model, cfg)
		if e != nil {
			newErr = e
			return
		}
		fresh.Detach()
	})*1e3)
	tr.end(sid)
	if newErr != nil {
		return nil, nil, fmt.Errorf("core.New: %w", newErr)
	}

	// nn: the forward and the per-node table on both backends, starting
	// with the one the workload runs.
	sid = tr.start("nn", id, 0)
	opts := nn.QuantizeOptions{ActZeroPoint: actZP}
	measure := func(backend string) ([]int64, error) {
		layers.set("nn.forward_"+backend+"_ms", ms(func() { nn.Run(model, x) }))
		nodes, err := nodeTable(model, x, p.samples)
		if err != nil {
			return nil, err
		}
		share, total := 0.0, float64(sumFrom(nodes, 0))
		for _, cut := range cuts {
			share += float64(sumFrom(nodes, cut)) / total
		}
		layers.set("nn.suffix_share_"+backend, share/float64(max(len(cuts), 1)))
		for i, slot := range foldNodes(nodes) {
			layers.set(fmt.Sprintf("nn.node_%s_us.%02d", backend, i), float64(slot)/1e3)
		}
		return nodes, nil
	}
	if nn.IsQuantized(model) {
		if nodesNS, err = measure("i8"); err != nil {
			return nil, nil, err
		}
		nn.DequantizeModel(model)
		if _, err = measure("f32"); err != nil {
			return nil, nil, err
		}
	} else {
		if nodesNS, err = measure("f32"); err != nil {
			return nil, nil, err
		}
		if err = nn.QuantizeModel(model, calib, opts); err != nil {
			return nil, nil, err
		}
		if _, err = measure("i8"); err != nil {
			return nil, nil, err
		}
	}
	var quantErr error
	layers.set("nn.quantize_model_ms", p.medianOfFew(func() {
		nn.DequantizeModel(model)
		if e := nn.QuantizeModel(model, calib, opts); e != nil {
			quantErr = e
		}
	})*1e3)
	nn.DequantizeModel(model)
	tr.end(sid)
	if quantErr != nil {
		return nil, nil, fmt.Errorf("nn.QuantizeModel: %w", quantErr)
	}

	sid = tr.start("tensor", id, 0)
	probeTensor(p, model, x, rng, layers)
	tr.end(sid)
	return nodesNS, cuts, nil
}

// nodeTable walks the model's chain node by node and returns each
// node's median cost in nanoseconds over that many raw walks — the
// per-layer table, without a histogram's bucket steps in between.
func nodeTable(model nn.Layer, x *tensor.Tensor, walks int) ([]int64, error) {
	chain := nn.PlanChain(model)
	samples := make([][]float64, chain.Len())
	for walk := 0; walk <= walks; walk++ {
		cur := x
		for n := 0; n < chain.Len(); n++ {
			t0 := time.Now()
			next, err := chain.Step(n, cur)
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			if walk > 0 { // walk 0 warms buffers
				samples[n] = append(samples[n], float64(d.Nanoseconds()))
			}
			cur = next
		}
	}
	out := make([]int64, chain.Len())
	for n := range out {
		out[n] = int64(median(samples[n]))
	}
	return out, nil
}

func sumFrom(nodes []int64, from int) int64 {
	var s int64
	for _, v := range nodes[min(from, len(nodes)):] {
		s += v
	}
	return s
}

// foldNodes fits a node table into nodeSlots entries: nodes past the
// table add into its last slot.
func foldNodes(nodes []int64) []int64 {
	out := make([]int64, min(len(nodes), nodeSlots))
	for i, v := range nodes {
		out[min(i, nodeSlots-1)] += v
	}
	return out
}

// probeTensor times the kernels at the shape of the model's costliest
// convolution, on synthetic data. Operation counts come from the tensor
// package's own FLOP formulas; byte counts are computed from shapes, not
// measured.
func probeTensor(p probing, model nn.Layer, x *tensor.Tensor, rng *rand.Rand, layers *metricSet) {
	type convShape struct {
		in, w []int
		spec  tensor.ConvSpec
		flops float64
	}
	var big convShape
	var handles []nn.HookHandle
	nn.Walk(model, func(_ string, l nn.Layer) {
		if conv, ok := l.(*nn.Conv2d); ok {
			handles = append(handles, conv.RegisterForwardHook(func(_ nn.Layer, in, _ *tensor.Tensor) {
				s := convShape{in: in.Shape(), w: conv.Weight().Data.Shape(), spec: conv.Spec}
				if s.flops = tensor.ConvFLOPs(s.in, s.w, s.spec); s.flops > big.flops {
					big = s
				}
			}))
		}
	})
	nn.Run(model, x)
	for _, h := range handles {
		h.Remove()
	}
	if big.flops == 0 {
		return
	}
	in := tensor.RandUniform(rng, -1, 1, big.in...)
	w := tensor.RandUniform(rng, -1, 1, big.w...)
	outShape := tensor.ConvOutShape(big.in, big.w, big.spec)
	dst := tensor.New(outShape...)
	layers.set("tensor.conv_f32_gflops", big.flops/p.medianOf(func() { tensor.Conv2dInto(dst, in, w, nil, big.spec) })/1e9)

	cout := big.w[0]
	codes := make([]int8, w.Len())
	tensor.QuantizeI8Into(codes, w.Data(), 1.0/127, 0)
	per := len(codes) / cout
	qp := tensor.QuantParams{InScale: 1.0 / 127, WScales: make([]float32, cout), RowSums: make([]int32, cout)}
	for oc := 0; oc < cout; oc++ {
		qp.WScales[oc] = 1.0 / 127
		for _, c := range codes[oc*per : (oc+1)*per] {
			qp.RowSums[oc] += int32(c)
		}
	}
	layers.set("tensor.conv_i8_gops", big.flops/p.medianOf(func() { tensor.Conv2dInt8Into(dst, in, codes, big.w, qp, big.spec) })/1e9)

	// The same convolution as one GEMM: [Cout/g, Cg·KH·KW] × [·, OH·OW].
	m, k, n := cout/big.spec.Canon().Groups, big.w[1]*big.w[2]*big.w[3], outShape[2]*outShape[3]
	a, b := tensor.RandUniform(rng, -1, 1, m, k), tensor.RandUniform(rng, -1, 1, k, n)
	layers.set("tensor.matmul_f32_gflops", tensor.GEMMFLOPs(m, n, k)/p.medianOf(func() { tensor.MatMul(a, b) })/1e9)

	// 4 bytes read and 1 written per element.
	inCodes := make([]int8, in.Len())
	layers.set("tensor.quantize_i8_gbps", 5*float64(in.Len())/p.medianOf(func() { tensor.QuantizeI8Into(inCodes, in.Data(), 1.0/127, 0) })/1e9)

	store := tensor.NewCheckpointStore(64 << 20)
	act := tensor.RandUniform(rng, -1, 1, outShape...)
	layers.set("tensor.checkpoint_put_us", p.medianPer(100, func() { store.Put(0, 1, act, 1) })*1e6)
	layers.set("tensor.checkpoint_get_us", p.medianPer(1000, func() { store.Get(0, 1) })*1e6)
	lane := tensor.RandUniform(rng, -1, 1, append([]int{1}, outShape[1:]...)...)
	layers.set("tensor.tile_batch_us", p.medianOf(func() { lane.TileBatch(8) })*1e6)
}

// probeScenario is the committed neuron-bitflip example's fault shape
// (examples/scenarios/neuron_bitflip.yaml); Compile resolves it against
// the workload model's layer geometry.
const probeScenario = `scenario_version: 1
name: neuron-bitflip
model:
  arch: alexnet
  classes: 4
  in_size: 16
  epochs: 6
  noise: 0.2
fault:
  backend: f32
  dtype: int8
  scope: neuron
  error:
    kind: bitflip
selector:
  kind: random
  rate: 1
run:
  trials: 20
  seed: 11
  workers: 2
`

// probeSmallPackages times the packages a campaign passes through once
// or once per record: the scheduler on this campaign's own trial specs,
// the stopping fold, scenario decode and compile, the JSONL sink and the
// campaign checkpoint.
func probeSmallPackages(p probing, env *experiments.CampaignEnv, nodesNS []int64, cuts []int, tmpRoot string, parent int, layers *metricSet, tr *tracer) error {
	id := tr.start("bench.probe_small_packages", parent, 0)
	defer tr.end(id)

	// sched: the plan the engine would build for 1000 trials of this
	// campaign — each trial's sample and cut re-derived from its stream.
	inj, err := env.NewReplica(0)
	if err != nil {
		return err
	}
	defer inj.Detach()
	const planned = 1000
	specs := make([]sched.Trial, planned)
	for t := range specs {
		rng := campaign.TrialStream(env.CampaignSeed, t)
		specs[t] = sched.Trial{Trial: t, Sample: env.Eligible[rng.Intn(len(env.Eligible))]}
		inj.Reset()
		if env.Cfg.Arm == nil || env.Cfg.Arm(inj, rng) != nil {
			continue
		}
		if minLayer, ok := inj.MinArmedLayer(); ok && minLayer < len(cuts) {
			specs[t].Packable, specs[t].Cut = true, cuts[minLayer]
		}
	}
	inj.Reset()
	costs := sched.NewCostTableNS(nodesNS)
	layers.set("sched.build_us_per_ktrials", p.medianOf(func() {
		sched.Build(specs, sched.Config{K: 8, Reuse: env.Cfg.PrefixReuse, Costs: costs})
	})*1e6)

	// stats: a rule that cannot fire, so every Observe does the full fold.
	watcher := stats.NewSequential(stats.StopRule{HalfWidth: 1e-9, Confidence: 0.95})
	trial := 0
	layers.set("stats.observe_ns", p.medianPer(1000, func() {
		watcher.Observe(trial, trial%7 == 0, false)
		trial++
	})*1e9)

	var sc scenario.Scenario
	var scErr error
	layers.set("scenario.decode_us", p.medianOf(func() { sc, scErr = scenario.Decode([]byte(probeScenario)) })*1e6)
	if scErr != nil {
		return fmt.Errorf("scenario.Decode: %w", scErr)
	}
	geometry := inj.Layers()
	layers.set("scenario.compile_us", p.medianPer(100, func() { _, scErr = scenario.Compile(sc, geometry) })*1e6)
	if scErr != nil {
		return fmt.Errorf("scenario.Compile: %w", scErr)
	}

	sink := report.NewTrialJSONL(io.Discard)
	rec := campaign.TrialRecord{Trial: 123456, Sample: 77, Site: "neuron L2 (c=5,h=3,w=7) bitflip[rand]",
		Outcome: campaign.Outcome{Top1Changed: true, ConfidenceDrop: 0.123456789}}
	layers.set("report.jsonl_record_us", p.medianPer(1000, func() {
		_ = sink.Record(rec) // io.Discard does not fail
	})*1e6)

	dir, err := scratchDir(tmpRoot, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "c000001.ckpt")
	ck := serialize.CampaignCheckpoint{ID: "c000001", State: "running", Spec: []byte(`{"v":1,"model":"alexnet","trials":500}`),
		NextTrial: 500, StopTrial: -1, Agg: serialize.NewAggregateState(campaign.Aggregate{Trials: 500, Top1Mis: 37, ConfDropSum: 12.5})}
	var ioErr error
	layers.set("serialize.checkpoint_save_us", p.medianOf(func() {
		if e := serialize.SaveCampaignCheckpoint(path, ck); e != nil {
			ioErr = e
		}
	})*1e6)
	layers.set("serialize.checkpoint_load_us", p.medianOf(func() {
		if _, e := serialize.LoadCampaignCheckpoint(path); e != nil {
			ioErr = e
		}
	})*1e6)
	if ioErr != nil {
		return fmt.Errorf("campaign checkpoint: %w", ioErr)
	}
	return nil
}
