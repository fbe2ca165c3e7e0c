package serve

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/core"
)

func TestSpecCanonDefaults(t *testing.T) {
	sp := Spec{V: WireVersion}.Canon()
	want := Spec{
		V: WireVersion, Model: "resnet18", Classes: 10, Size: 32, Epochs: 8,
		Noise: 0.6, Seed: 1, Trials: 1000, Error: "bitflip", Scope: "neuron",
		Backend: "f32", DType: "int8", Shards: 1, Workers: 4,
	}
	if sp != want {
		t.Fatalf("canon defaults drifted:\n got %+v\nwant %+v", sp, want)
	}
	// Canon is idempotent, and set fields survive it.
	if again := sp.Canon(); again != sp {
		t.Fatalf("canon not idempotent: %+v vs %+v", again, sp)
	}
	withStop := Spec{V: WireVersion, StopCI: 0.01}.Canon()
	if withStop.StopConf != 0.95 {
		t.Fatalf("stop_conf default = %g, want 0.95", withStop.StopConf)
	}
}

func TestSpecValidate(t *testing.T) {
	good := baseSpec().Canon()
	if err := good.Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
	mut := func(f func(*Spec)) Spec {
		sp := baseSpec().Canon()
		f(&sp)
		return sp
	}
	bad := []struct {
		name string
		sp   Spec
		want error
	}{
		{"version", mut(func(sp *Spec) { sp.V = 2 }), ErrWireVersion},
		{"error model", mut(func(sp *Spec) { sp.Error = "martian" }), ErrSpec},
		{"scope", mut(func(sp *Spec) { sp.Scope = "galaxy" }), ErrSpec},
		{"dtype", mut(func(sp *Spec) { sp.DType = "fp64" }), ErrSpec},
		{"backend", mut(func(sp *Spec) { sp.Backend = "tpu" }), ErrSpec},
		{"int8 mismatch", mut(func(sp *Spec) { sp.Backend = "int8"; sp.DType = "fp16" }), ErrSpec},
		{"stop ci", mut(func(sp *Spec) { sp.StopCI = 0.5 }), ErrSpec},
		{"stop conf", mut(func(sp *Spec) { sp.StopCI = 0.01; sp.StopConf = 1.5 }), ErrSpec},
		{"stop min", mut(func(sp *Spec) { sp.StopCI = 0.01; sp.StopMin = -3 }), ErrSpec},
	}
	for _, c := range bad {
		if err := c.sp.Validate(); !errors.Is(err, c.want) {
			t.Fatalf("%s: Validate() = %v, want errors.Is(%v)", c.name, err, c.want)
		}
	}
}

func TestDecodeSpec(t *testing.T) {
	// The minimal spec resolves to the CLI defaults.
	sp, err := DecodeSpec(strings.NewReader(`{"v":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp != (Spec{V: WireVersion}).Canon() {
		t.Fatalf("minimal spec = %+v", sp)
	}
	// Typos fail loudly instead of silently running defaults — and so do
	// the engine's execution settings, which are not wire fields: a spec
	// the previous wire revision wrote (it carried schedule, trial_batch
	// and no_prefix_reuse, all documented as never changing a result)
	// is rejected by field name when submitted. The same bytes inside a
	// checkpoint still restore; TestServeKillResumeDeterminism pins that.
	for _, c := range []struct{ doc, field string }{
		{`{"v":1,"modle":"vgg19"}`, `"modle"`},
		{parentCommitSpec(`{"v":1,"model":"alexnet"}`), `"schedule"`},
		{`{"v":1,"trial_batch":8}`, `"trial_batch"`},
		{`{"v":1,"no_prefix_reuse":true}`, `"no_prefix_reuse"`},
	} {
		_, err := DecodeSpec(strings.NewReader(c.doc))
		if !errors.Is(err, ErrSpec) || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("DecodeSpec(%s) = %v, want ErrSpec naming %s", c.doc, err, c.field)
		}
	}
	if _, err := DecodeSpec(strings.NewReader(`{"v":7}`)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("future version: %v", err)
	}
	if _, err := DecodeSpec(strings.NewReader(`{"v":`)); !errors.Is(err, ErrSpec) {
		t.Fatalf("truncated: %v", err)
	}
	// A missing version is not silently treated as current.
	if _, err := DecodeSpec(strings.NewReader(`{}`)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("missing version: %v", err)
	}
}

// TestDecodeSpecRejectsOutOfRange: negative fixture fields and run knobs
// beyond their bounds fail with ErrSpec at decode time — before a spec
// is stored or a fixture trained — and so does the local path (Config);
// the bounds themselves are accepted.
func TestDecodeSpecRejectsOutOfRange(t *testing.T) {
	for _, doc := range []string{
		`{"v":1,"classes":-1}`,
		`{"v":1,"size":-5}`,
		`{"v":1,"epochs":-2}`,
		`{"v":1,"noise":-0.5}`,
		`{"v":1,"trials":100000001}`,
		`{"v":1,"workers":257}`,
		`{"v":1,"shards":257}`,
	} {
		if _, err := DecodeSpec(strings.NewReader(doc)); !errors.Is(err, ErrSpec) {
			t.Errorf("DecodeSpec(%s) = %v, want ErrSpec", doc, err)
		}
		var sp Spec
		if err := json.Unmarshal([]byte(doc), &sp); err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Config(); !errors.Is(err, ErrSpec) {
			t.Errorf("Config(%s) = %v, want ErrSpec", doc, err)
		}
	}
	if _, err := DecodeSpec(strings.NewReader(`{"v":1,"trials":100000000,"workers":256,"shards":256}`)); err != nil {
		t.Errorf("spec at the bounds rejected: %v", err)
	}
}

// parentCommitSpec rewrites a spec document the way the previous wire
// revision would have written it: with the execution settings it still
// carried, at the values its Canon filled in.
func parentCommitSpec(doc string) string {
	return `{"schedule":"auto","trial_batch":8,` + strings.TrimPrefix(doc, "{")
}

func TestSpecConfig(t *testing.T) {
	sp := baseSpec()
	sp.Scope = "weight"
	sp.StopCI = 0.02
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.IsolateWeights {
		t.Fatal("weight scope must isolate weights")
	}
	// Only weight scope: neuron campaigns keep one shared weight set.
	if neuron, err := baseSpec().Config(); err != nil || neuron.IsolateWeights {
		t.Fatalf("neuron scope: IsolateWeights = %v, err %v; want shared weights", neuron.IsolateWeights, err)
	}
	if !cfg.PrefixReuse || cfg.TrialBatch != 0 || cfg.Schedule != campaign.ScheduleAuto {
		t.Fatalf("execution settings must be the defaults (reuse on, lanes worked out, auto): %+v", cfg)
	}
	if cfg.OnError != campaign.SkipAndCount {
		t.Fatal("skip_errors not honored")
	}
	if cfg.DType != core.INT8 {
		t.Fatalf("dtype = %v", cfg.DType)
	}
	if cfg.Model != "alexnet" || cfg.Trials != sp.Trials || cfg.Seed != sp.Seed {
		t.Fatalf("fixture fields drifted: %+v", cfg)
	}
	if cfg.Stop.HalfWidth != 0.02 || cfg.Stop.Confidence != 0.95 {
		t.Fatalf("stop rule drifted: %+v", cfg.Stop)
	}
	if _, err := (Spec{V: 3}).Config(); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("Config on a bad version: %v", err)
	}
}

func TestEnvKey(t *testing.T) {
	base := baseSpec()
	// Run-shape fields must not split the fixture cache: specs equal up
	// to trials/shards/workers/stop share one trained fixture.
	same := []func(*Spec){
		func(sp *Spec) { sp.Trials = 77777 },
		func(sp *Spec) { sp.Shards = 9 },
		func(sp *Spec) { sp.Workers = 13 },
		func(sp *Spec) { sp.StopCI = 0.01; sp.StopConf = 0.9; sp.StopMin = 5 },
	}
	for i, f := range same {
		sp := base
		f(&sp)
		if sp.envKey() != base.envKey() {
			t.Fatalf("run-shape mutation %d changed the fixture key", i)
		}
	}
	// Fixture fields must.
	diff := []func(*Spec){
		func(sp *Spec) { sp.Model = "squeezenet" },
		func(sp *Spec) { sp.Seed = 7 },
		func(sp *Spec) { sp.DType = "fp16" },
		func(sp *Spec) { sp.Backend = "int8"; sp.DType = "int8" },
		func(sp *Spec) { sp.Error = "zero" },
		func(sp *Spec) { sp.Noise = 0.3 },
	}
	for i, f := range diff {
		sp := base
		f(&sp)
		if sp.envKey() == base.envKey() {
			t.Fatalf("fixture mutation %d did not change the fixture key", i)
		}
	}
}

func TestTerminalState(t *testing.T) {
	for _, s := range []string{StateDone, StateCancelled, StateFailed} {
		if !terminalState(s) {
			t.Fatalf("%s should be terminal", s)
		}
	}
	for _, s := range []string{StatePending, StateTraining, StateRunning, StatePaused} {
		if terminalState(s) {
			t.Fatalf("%s should not be terminal", s)
		}
	}
}

func TestViewOf(t *testing.T) {
	var agg campaign.Aggregate
	agg.Add(campaign.Outcome{Top1Changed: true, ConfidenceDrop: 0.5})
	agg.Add(campaign.Outcome{})
	v := viewOf(agg, 2, -1)
	if v.Trials != 2 || v.Top1Mis != 1 || v.Rate != 0.5 || v.NextTrial != 2 || v.StopTrial != -1 {
		t.Fatalf("view = %+v", v)
	}
	if !(v.Lo > 0 && v.Lo < v.Rate && v.Rate < v.Hi && v.Hi < 1) {
		t.Fatalf("Wilson interval [%g, %g] does not bracket %g", v.Lo, v.Hi, v.Rate)
	}
}

func TestDecodeEvent(t *testing.T) {
	ev, err := DecodeEvent([]byte(`{"type":"agg","agg":{"trials":3,"rate":0.25,"next_trial":3,"stop_trial":-1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != "agg" || ev.Agg == nil || ev.Agg.Trials != 3 || ev.Agg.Rate != 0.25 {
		t.Fatalf("event = %+v", ev)
	}
	if _, err := DecodeEvent([]byte(`{"type":` + strings.Repeat("x", 200))); err == nil {
		t.Fatal("corrupt line decoded")
	}
}

func TestTruncate(t *testing.T) {
	if got := truncate("short", 80); got != "short" {
		t.Fatalf("truncate(short) = %q", got)
	}
	long := strings.Repeat("é", 60) // 120 bytes of two-byte runes
	got := truncate(long, 81)       // cuts mid-rune; the partial rune must be dropped
	if !strings.HasSuffix(got, "...") || strings.ContainsRune(got, '�') {
		t.Fatalf("truncate mangled runes: %q", got)
	}
}
