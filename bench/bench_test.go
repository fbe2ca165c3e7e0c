package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program emits from: same workloads, same metrics, same units, same
// bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, b.Workloads[i].Name, w.name)
		}
		if b.Workloads[i].Why == "" || len(b.Workloads[i].Why) > 200 || strings.Contains(b.Workloads[i].Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program declares %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes at most 128", len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
}

// toyRun measures one workload at test sizes.
func toyRun(t *testing.T, name string, trace bool, dir string) record {
	t.Helper()
	rec, err := measure(context.Background(), options{workload: name, seed: 3, seconds: 0.3, trace: trace, toy: true, outDir: dir})
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", name, trace, err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Fatalf("%s (trace=%v): correct=%v attempted=%d failed=%d notes=%v", name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Notes)
	}
	if rec.AggregateDigest == "" {
		t.Errorf("%s: no aggregate_digest", name)
	}
	return rec
}

// checkMetrics requires exactly the declared names, each with its unit
// and a finite value.
func checkMetrics(t *testing.T, rec record, defs []metricDef) {
	t.Helper()
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", rec.Workload, len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", rec.Workload, d.Name)
			continue
		}
		if m.Unit != d.Unit || m.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, want %q", rec.Workload, d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s is %v", rec.Workload, d.Name, m.Value)
		}
	}
}

// liveOn lists, per workload, per-layer metrics the traced run must
// actually measure (non-zero), one or more from every layer it claims.
var liveOn = map[string][]string{
	"neuron_f32_deep":  {"experiments.prepare_s", "nn.forward_f32_ms", "nn.node_f32_us.00", "nn.node_i8_us.00", "tensor.conv_f32_gflops", "core.forward_disarmed_ms", "campaign.steady_s", "campaign.prefix_hits", "core.perturb_neuron", "sched.build_us_per_ktrials", "serialize.checkpoint_save_us"},
	"neuron_int8_deep": {"nn.forward_i8_ms", "nn.quantize_model_ms", "tensor.conv_i8_gops", "campaign.trials_per_s_w1", "core.perturb_neuron"},
	"weight_f32_full":  {"core.weight_arm_restore_us", "campaign.prefix_fallbacks", "core.perturb_weight", "campaign.scaling_efficiency"},
	"inference_hooks":  {"forward_p50_ms", "forward_p90_ms", "disarmed_over_bare", "armed_over_bare", "core.new_profile_ms", "tensor.matmul_f32_gflops"},
	"serve_small_campaigns": {"campaign_p50_s", "campaign_p90_s", "first_record_p50_s", "replay_records_per_s", "serve.submit_rtt_ms", "serve.status_rtt_ms",
		"serve.checkpoint_writes", "serve.records_folded", "serve.envcache_hits", "serve.http_requests", "serve.pause_resume_ms",
		"serve.live_stream_first_record_ms", "serve.live_stream_done_s", "campaign.startup_ms", "scenario.decode_us", "report.jsonl_record_us"},
}

// TestWorkloads drives every workload through the code path the driver
// uses, untraced and traced, at toy sizes.
func TestWorkloads(t *testing.T) {
	dir := t.TempDir()
	setFile := filepath.Join(dir, "set.jsonl")
	for _, w := range workloads {
		plain := toyRun(t, w.name, false, dir)
		checkMetrics(t, plain, endToEnd)
		for name, m := range plain.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, name, m.Value)
			}
		}
		traced := toyRun(t, w.name, true, dir)
		checkMetrics(t, traced, perLayer)
		for _, name := range liveOn[w.name] {
			if traced.Metrics[name].Value == 0 {
				t.Errorf("%s: per-layer metric %s was not measured", w.name, name)
			}
		}
		if again := toyRun(t, w.name, false, dir); again.AggregateDigest != plain.AggregateDigest {
			t.Errorf("%s: same seed, different aggregate_digest", w.name)
		}

		if m := traced.Metrics; m["campaign.steady_s"].Value > 0 {
			sum := m["campaign.startup_ms"].Value/1e3 + m["campaign.steady_s"].Value + m["campaign.tail_ms"].Value/1e3
			if wall := traced.Detail["traced_rep_wall_s"]; math.Abs(sum-wall) > 0.02*wall {
				t.Errorf("%s: startup+steady+tail = %.6fs, the rep took %.6fs", w.name, sum, wall)
			}
		}
		checkTrace(t, traced.TraceFile)
		for _, rec := range []record{plain, traced} {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := appendLine(setFile, line); err != nil {
				t.Fatal(err)
			}
		}
	}

	var stdout, stderr bytes.Buffer
	if code := runCompare([]string{setFile, setFile}, &stdout, &stderr); code != 0 {
		t.Errorf("compare of a set with itself exits %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	if s := stdout.String(); strings.Contains(s, "worse") || strings.Contains(s, "unresolved") || strings.Count(s, " ok") != len(workloads)*len(endToEnd) {
		t.Errorf("compare of a set with itself is not all ok:\n%s", s)
	}
}

// checkTrace requires that within every span tree the self times add up
// to the root's duration.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	self := selfTimes(tf.Spans)
	rootOf := make(map[int]int, len(tf.Spans))
	sums := map[int]int64{}
	for _, s := range tf.Spans { // parents precede children
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d (%s) was never ended", path, s.ID, s.Name)
		}
		rootOf[s.ID] = s.ID
		if s.Parent != 0 {
			rootOf[s.ID] = rootOf[s.Parent]
		}
		sums[rootOf[s.ID]] += self[s.ID]
	}
	for _, s := range tf.Spans {
		if s.Parent == 0 && sums[s.ID] != s.EndNS-s.StartNS {
			t.Errorf("%s: self times under root %d (%s) sum to %dns, the root lasted %dns", path, s.ID, s.Name, sums[s.ID], s.EndNS-s.StartNS)
		}
	}
}

// TestCommandLine checks the driver's view: flags as it passes them, and
// a last line with exactly the four keys.
func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := mainRun([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
	if code := mainRun([]string{"--workload", "inference_hooks", "--trace", "2"}, &stdout, &stderr); code == 0 {
		t.Error("--trace 2 accepted")
	}
	rec := toyRun(t, "inference_hooks", false, t.TempDir())
	last, err := json.Marshal(rec.result)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", sortedKeys(keys))
	}
}

// TestSelfTimesCountOverlapOnce covers concurrent children.
func TestSelfTimesCountOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, StartNS: 40, EndNS: 80},
	}
	if got := selfTimes(spans)[1]; got != 30 {
		t.Errorf("self time %d, want 30 (children cover [10,80) once)", got)
	}
}

// TestSpreadUsesPythonQuartiles pins spread to what the driver computes:
// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestSpreadUsesPythonQuartiles(t *testing.T) {
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}
