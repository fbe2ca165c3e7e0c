package main

import (
	"fmt"
	"sort"
)

// metricDef declares one benchmark metric. The two tables below are the
// single source of the names, units and directions BENCHMARK.json lists;
// TestBenchmarkJSONMatchesTables pins the two against each other.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, share of the parent's median
}

// endToEnd lists what a user of the system sees. Every workload emits
// every one of them from its untraced run (the driver requires it), so
// each is defined per workload in terms of that workload's operation: a
// trial on the four campaign workloads, a forward on inference_hooks.
// README.md maps the issue's workload-specific names onto these and says
// how the bounds follow from the reference box's run-to-run noise.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.12},
}

// nodeSlots is the width of the per-chain-node tables: densenet (the
// campaign fixture) decomposes into 26 chain nodes. Models with fewer
// nodes leave the tail at 0; nodes past the table fold into the last
// slot.
const nodeSlots = 26

// perLayer lists the traced run's metrics, layer = package name. Every
// workload emits all of them; a layer the workload does not exercise
// reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		// Workload-specific end-to-end views, demoted here because the
		// driver wants every end-to-end metric on every workload.
		lo("forward_p50_ms", "ms"),
		lo("forward_p90_ms", "ms"),
		lo("disarmed_over_bare", "ratio"),
		lo("armed_over_bare", "ratio"),
		lo("campaign_p50_s", "s"),
		lo("campaign_p90_s", "s"),
		lo("first_record_p50_s", "s"),
		hi("replay_records_per_s", "1/s"),

		lo("experiments.prepare_s", "s"),
		hi("experiments.eligible_samples", "count"),

		lo("nn.forward_f32_ms", "ms"),
		lo("nn.forward_i8_ms", "ms"),
		lo("nn.quantize_model_ms", "ms"),
		lo("nn.suffix_share_f32", "ratio"),
		lo("nn.suffix_share_i8", "ratio"),

		hi("tensor.conv_f32_gflops", "GFLOP/s"),
		hi("tensor.conv_i8_gops", "GOP/s"),
		hi("tensor.matmul_f32_gflops", "GFLOP/s"),
		hi("tensor.quantize_i8_gbps", "GB/s"),
		lo("tensor.checkpoint_put_us", "us"),
		lo("tensor.checkpoint_get_us", "us"),
		lo("tensor.tile_batch_us", "us"),

		lo("core.new_profile_ms", "ms"),
		lo("core.forward_bare_ms", "ms"),
		lo("core.forward_disarmed_ms", "ms"),
		lo("core.forward_armed_ms", "ms"),
		lo("core.arm_reset_us", "us"),
		lo("core.weight_arm_restore_us", "us"),
		lo("core.prefix_warm_ms", "ms"),
		lo("core.prefix_forward_ms", "ms"),
		hi("core.perturb_neuron", "count"),
		hi("core.perturb_weight", "count"),

		lo("campaign.startup_ms", "ms"),
		lo("campaign.steady_s", "s"),
		lo("campaign.tail_ms", "ms"),
		hi("campaign.trials_per_s_w1", "1/s"),
		hi("campaign.scaling_efficiency", "ratio"),
		hi("campaign.cpu_busy_share", "ratio"),
		hi("campaign.prefix_hits", "count"),
		lo("campaign.prefix_misses", "count"),
		lo("campaign.prefix_fallbacks", "count"),
		hi("campaign.prefix_hit_ratio", "ratio"),
		hi("campaign.sched_packed_trials", "count"),
		hi("campaign.sched_solo_trials", "count"),
		lo("campaign.sched_seq_trials", "count"),
		lo("campaign.batch_seq_fallbacks", "count"),
		lo("campaign.skipped", "count"),
		lo("campaign.sink_queue_max", "count"),
		lo("campaign.alloc_mb_per_ktrials", "MiB"),
		lo("campaign.gc_cycles", "count"),

		lo("sched.build_us_per_ktrials", "us"),
		lo("stats.observe_ns", "ns"),
		lo("scenario.decode_us", "us"),
		lo("scenario.compile_us", "us"),
		lo("report.jsonl_record_us", "us"),
		lo("serialize.checkpoint_save_us", "us"),
		lo("serialize.checkpoint_load_us", "us"),

		lo("serve.submit_rtt_ms", "ms"),
		lo("serve.status_rtt_ms", "ms"),
		lo("serve.checkpoint_writes", "count"),
		hi("serve.records_folded", "ratio"),
		hi("serve.envcache_hits", "count"),
		lo("serve.http_requests", "count"),
		lo("serve.overhead_share", "ratio"),
		lo("serve.pause_resume_ms", "ms"),
		lo("serve.live_stream_first_record_ms", "ms"),
		lo("serve.live_stream_resumes", "count"),
		lo("serve.live_stream_done_s", "s"),

		lo("bench.trace_overhead_pct", "%"),
	}
	for _, backend := range []string{"f32", "i8"} {
		for i := 0; i < nodeSlots; i++ {
			defs = append(defs, lo(fmt.Sprintf("nn.node_%s_us.%02d", backend, i), "us"))
		}
	}
	return defs
}

// metric is one emitted value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics against a declaration table. A
// name outside the table or set twice is a harness bug and panics.
type metricSet struct {
	defs   map[string]metricDef
	order  []string
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), values: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
		m.order = append(m.order, d.Name)
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.defs[name]; !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared", name))
	}
	if _, dup := m.values[name]; dup {
		panic(fmt.Sprintf("bench: metric %q set twice", name))
	}
	m.values[name] = v
}

// emit renders every declared metric; the undeclared-by-this-workload
// ones read 0 (see perLayer).
func (m *metricSet) emit() map[string]metric {
	out := make(map[string]metric, len(m.order))
	for _, name := range m.order {
		out[name] = metric{Value: m.values[name], Unit: m.defs[name].Unit}
	}
	return out
}

// live returns the names this run actually measured, sorted.
func (m *metricSet) live() []string {
	names := make([]string, 0, len(m.values))
	for name := range m.values {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
