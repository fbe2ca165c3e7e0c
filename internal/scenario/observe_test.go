package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/nn"
	"gofi/internal/tensor"
)

type stubSource struct{ xs []*tensor.Tensor }

func (s stubSource) Sample(i int) (*tensor.Tensor, int) { return s.xs[i], 0 }

// tinyInjector builds a 2-hooked-layer model (conv1, fc) small enough
// for observer unit tests to re-execute forwards.
func tinyInjector(t *testing.T) *core.Injector {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	model := nn.NewSequential("m",
		nn.NewConv2d("conv1", rng, 1, 2, 3, nn.Conv2dConfig{Pad: 1}),
		nn.NewReLU("r"),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", rng, 2*4*4, 3, true),
	)
	nn.SetTraining(model, false)
	inj, err := core.New(model, core.Config{Batch: 1, Channels: 1, Height: 4, Width: 4, IncludeLinear: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func sdcScenario() Scenario {
	sc := minimal()
	sc.Observers = []ObserverSpec{{Kind: ObsSDC}}
	sc.Selector = SelectorSpec{Kind: SelFixed, Sites: []SiteSpec{
		{Layer: "m.conv1", C: 1, H: 2, W: 3},
		{Layer: "m.conv1", C: 0, H: 1, W: 2}, // same layer twice: counted once per trial
		{Layer: "m.conv2", C: 5},
	}}
	return sc
}

func rec(trial int, sdc bool) campaign.TrialRecord {
	return campaign.TrialRecord{Trial: trial, Sample: 0, Outcome: campaign.Outcome{Top1Changed: sdc}}
}

func TestObserversNilWhenUndeclared(t *testing.T) {
	c := compileOK(t, minimal())
	o, err := c.NewObservers(ObserverEnv{Seed: 1, Eligible: []int{0}})
	if err != nil || o != nil {
		t.Fatalf("NewObservers = (%v, %v), want (nil, nil)", o, err)
	}
}

func TestObserversEnvErrors(t *testing.T) {
	c := compileOK(t, sdcScenario())
	if _, err := c.NewObservers(ObserverEnv{Seed: 1}); err == nil {
		t.Error("empty eligible list must fail")
	}

	sc := sdcScenario()
	sc.Observers = []ObserverSpec{{Kind: ObsMSE}}
	cm := compileOK(t, sc)
	if _, err := cm.NewObservers(ObserverEnv{Seed: 1, Eligible: []int{0}}); err == nil {
		t.Error("mse observer without source/replica factory must fail")
	}
}

func TestSDCFold(t *testing.T) {
	c := compileOK(t, sdcScenario())
	o, err := c.NewObservers(ObserverEnv{Seed: 42, Eligible: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order arrival: the frontier must hold trial 2 until 0 and 1
	// land, then fold all three in index order.
	for _, r := range []campaign.TrialRecord{rec(2, true), rec(0, true), rec(1, false)} {
		if err := o.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	// A skipped trial observes nothing.
	skipped := rec(3, true)
	skipped.Err = "boom"
	if err := o.Record(skipped); err != nil {
		t.Fatal(err)
	}

	rep := o.Report()
	if len(rep.MSE) != 0 {
		t.Errorf("no mse observer declared, got %+v", rep.MSE)
	}
	// Every trial arms sites in conv1 (layer 0, twice — deduplicated) and
	// conv2 (layer 1); fc (layer 2) is enabled but never hit.
	want := []LayerSDC{
		{Layer: 0, Path: "m.conv1", Trials: 3, SDC: 2, Rate: 2.0 / 3.0},
		{Layer: 1, Path: "m.conv2", Trials: 3, SDC: 2, Rate: 2.0 / 3.0},
		{Layer: 2, Path: "m.fc", Trials: 0, SDC: 0, Rate: 0},
	}
	if !reflect.DeepEqual(rep.SDC, want) {
		t.Errorf("SDC report = %+v, want %+v", rep.SDC, want)
	}
}

func TestSDCFoldOrderIndependent(t *testing.T) {
	run := func(order []int) Report {
		c := compileOK(t, sdcScenario())
		o, err := c.NewObservers(ObserverEnv{Seed: 42, Eligible: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, trial := range order {
			if err := o.Record(rec(trial, trial%3 == 0)); err != nil {
				t.Fatal(err)
			}
		}
		return o.Report()
	}
	a := run([]int{0, 1, 2, 3, 4, 5})
	b := run([]int{5, 3, 1, 4, 2, 0})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("report depends on arrival order:\nin order: %+v\nshuffled: %+v", a, b)
	}
}

func TestObserverFrontierRespectsOffset(t *testing.T) {
	c := compileOK(t, sdcScenario())
	o, err := c.NewObservers(ObserverEnv{Seed: 42, Offset: 5, Eligible: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	// Records above the offset buffer until the frontier trial arrives.
	if err := o.Record(rec(6, true)); err != nil {
		t.Fatal(err)
	}
	if got := o.Report().SDC[0].Trials; got != 0 {
		t.Fatalf("trial 6 folded before trial 5 arrived (trials=%d)", got)
	}
	if err := o.Record(rec(5, true)); err != nil {
		t.Fatal(err)
	}
	if got := o.Report().SDC[0].Trials; got != 2 {
		t.Fatalf("frontier did not drain: trials=%d, want 2", got)
	}
}

// mseScenario sets one conv1 neuron to a constant, so conv1 (and the
// downstream fc) activations measurably diverge from the clean run.
func mseScenario(limit int) Scenario {
	sc := minimal()
	sc.Fault.DType = "fp32"
	sc.Fault.Error = &ErrorSpec{Kind: "set", Value: 10}
	sc.Selector = SelectorSpec{Kind: SelFixed, Sites: []SiteSpec{{Layer: "m.conv1", C: 0, H: 0, W: 0}}}
	sc.Observers = []ObserverSpec{{Kind: ObsMSE, Limit: limit}}
	return sc
}

func mseEnv(t *testing.T) ObserverEnv {
	t.Helper()
	x := tensor.RandUniform(rand.New(rand.NewSource(8)), -1, 1, 1, 1, 4, 4)
	return ObserverEnv{
		Seed:     42,
		Eligible: []int{0},
		Source:   stubSource{xs: []*tensor.Tensor{x}},
		NewReplica: func() (*core.Injector, error) {
			return tinyInjector(t), nil
		},
	}
}

func TestMSEFold(t *testing.T) {
	inj := tinyInjector(t)
	c, err := Compile(mseScenario(0).Canon(), inj.Layers())
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.NewObservers(mseEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		if err := o.Record(rec(trial, false)); err != nil {
			t.Fatal(err)
		}
	}
	rep := o.Report()
	if len(rep.MSE) != 2 {
		t.Fatalf("MSE report has %d layers, want 2: %+v", len(rep.MSE), rep.MSE)
	}
	for _, lm := range rep.MSE {
		if lm.Trials != 3 {
			t.Errorf("layer %s observed %d trials, want 3", lm.Path, lm.Trials)
		}
		if lm.MSE <= 0 {
			t.Errorf("layer %s MSE = %g, want > 0 (a conv1 neuron is forced to 10)", lm.Path, lm.MSE)
		}
		if lm.MSEBits != math.Float64bits(lm.MSE) {
			t.Errorf("layer %s MSEBits %d does not pin MSE %g", lm.Path, lm.MSEBits, lm.MSE)
		}
	}
	if rep.MSE[0].Path != "m.conv1" || rep.MSE[1].Path != "m.fc" {
		t.Errorf("MSE layer paths = %s, %s", rep.MSE[0].Path, rep.MSE[1].Path)
	}
}

func TestMSEFoldDeterministic(t *testing.T) {
	run := func() Report {
		inj := tinyInjector(t)
		c, err := Compile(mseScenario(0).Canon(), inj.Layers())
		if err != nil {
			t.Fatal(err)
		}
		o, err := c.NewObservers(mseEnv(t))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			if err := o.Record(rec(trial, false)); err != nil {
				t.Fatal(err)
			}
		}
		return o.Report()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("mse fold not deterministic:\na: %+v\nb: %+v", a, b)
	}
}

func TestMSELimit(t *testing.T) {
	inj := tinyInjector(t)
	c, err := Compile(mseScenario(2).Canon(), inj.Layers())
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.NewObservers(mseEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		if err := o.Record(rec(trial, false)); err != nil {
			t.Fatal(err)
		}
	}
	for _, lm := range o.Report().MSE {
		if lm.Trials != 2 {
			t.Errorf("layer %s observed %d trials, want the limit 2", lm.Path, lm.Trials)
		}
	}
}

func TestMSEReplicaErrorPropagates(t *testing.T) {
	inj := tinyInjector(t)
	c, err := Compile(mseScenario(0).Canon(), inj.Layers())
	if err != nil {
		t.Fatal(err)
	}
	env := mseEnv(t)
	env.NewReplica = func() (*core.Injector, error) { return nil, fmt.Errorf("no replica") }
	o, err := c.NewObservers(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Record(rec(0, false)); err == nil {
		t.Error("a failing replica factory must surface through Record")
	}
}

// TestMSEReportCanonicalNaN: two folds whose sums went NaN through
// different payloads report the same MSEBits, so no persisted bit pattern
// depends on which NaN a kernel kept.
func TestMSEReportCanonicalNaN(t *testing.T) {
	c := &Compiled{layers: []core.LayerInfo{{Path: "conv1"}}, enabled: []int{0}}
	var bits []uint64
	for _, payload := range []uint64{0x7ff8000000000001, 0xfff8000000dead00} {
		f := newMSEFold(c, 0)
		f.sumSq[0], f.trials[0] = math.Float64frombits(payload), 3
		bits = append(bits, f.report(c)[0].MSEBits)
	}
	if bits[0] != bits[1] || bits[0] != math.Float64bits(math.NaN()) {
		t.Fatalf("NaN MSE bits %#x and %#x, want both %#x", bits[0], bits[1], math.Float64bits(math.NaN()))
	}
}
