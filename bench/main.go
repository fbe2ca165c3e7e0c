// Command bench is GoFI's one performance harness: five workloads, one
// output schema, end-to-end metrics from an untraced run and per-layer
// metrics from a traced run of the same workload. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory is the glossary.
//
//	go run ./bench -workload neuron_f32_deep -seed 1 -seconds 10 -trace 0
//	go run ./bench compare a.jsonl b.jsonl
//
// The last line of standard output is the result object the driver
// reads; the line before it is the full record (environment stamp,
// sizes, aggregate digest, detail values), which -out also appends to a
// file for compare.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// result is the driver's contract: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run in full; compare reads files of these.
type record struct {
	Schema   string   `json:"schema"`
	Env      envStamp `json:"env"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	// Sizes are the workload's fixed input sizes (trials per rep, batch,
	// clients, ...), so a record says what its rates are rates of.
	Sizes map[string]int `json:"sizes"`
	result
	// AggregateDigest is the sha256 of the workload's simulated
	// statistics: equal seeds must give equal digests on any commit.
	AggregateDigest string `json:"aggregate_digest"`
	// Detail carries values printed beside the metrics (rep min/max,
	// sample counts) and the exact-repeat counters.
	Detail map[string]float64 `json:"detail,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
	// TraceFile is where the traced run wrote its spans.
	TraceFile string `json:"trace_file,omitempty"`
}

const recordSchema = "gofi-bench/1"

// run is everything a workload reports back to main.
type run struct {
	attempted, failed int
	correct           bool
	digest            string
	sizes             map[string]int
	detail            map[string]float64
	notes             []string
}

// options are one invocation's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool   // test sizes: seconds of work, not tens of seconds
	outDir   string // where the traced run writes its spans
}

// workload is one row of BENCHMARK.json's workloads.
type workload struct {
	name string
	run  func(ctx context.Context, o options, e2e, layers *metricSet, tr *tracer) (run, error)
}

var workloads = []workload{
	{"neuron_f32_deep", runCampaignWorkload},
	{"neuron_int8_deep", runCampaignWorkload},
	{"weight_f32_full", runCampaignWorkload},
	{"inference_hooks", runInferenceWorkload},
	{"serve_small_campaigns", runServeWorkload},
}

func main() { os.Exit(mainRun(os.Args[1:], os.Stdout, os.Stderr)) }

func mainRun(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&o.workload, "workload", "", "one of "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the campaign, the fixture and the input tensors")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, spans written to -outdir")
	fs.StringVar(&o.outDir, "outdir", "bench/out", "directory for trace files")
	out := fs.String("out", "", "append this run's full record to the file (input of compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: usage: -workload <name> -seed <n> -seconds <s> -trace <0|1>\n")
		return 2
	}
	o.trace = *trace == 1
	rec, err := measure(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendLine(*out, line); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	last, _ := json.Marshal(rec.result)
	fmt.Fprintf(stdout, "%s\n%s\n", line, last)
	return 0
}

// measure runs one workload once and assembles its record.
func measure(ctx context.Context, o options) (record, error) {
	env, err := stampEnv()
	if err != nil {
		return record{}, err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return record{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	e2e, layers := newMetricSet(endToEnd), newMetricSet(perLayer)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	r, err := w.run(ctx, o, e2e, layers, tr)
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	rec := record{
		Schema: recordSchema, Env: env, Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Sizes: r.sizes, AggregateDigest: r.digest, Detail: r.detail, Notes: r.notes,
		result: result{Correct: r.correct && r.failed == 0, Attempted: r.attempted, Failed: r.failed},
	}
	if o.trace {
		rec.Metrics = layers.emit()
		rec.Notes = append(rec.Notes, "live per-layer metrics: "+strings.Join(layers.live(), " "))
		if rec.TraceFile, err = tr.write(o.outDir, o.workload, o.seed); err != nil {
			return record{}, err
		}
	} else {
		e2e.set("peak_rss_mb", peakRSSMiB())
		rec.Metrics = e2e.emit()
	}
	return rec, nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// window is a closed loop's clock: it keeps starting operations until
// the measured seconds are used up.
type window struct {
	start time.Time
	limit time.Duration
}

func openWindow(seconds float64) window {
	return window{start: time.Now(), limit: time.Duration(seconds * float64(time.Second))}
}

func (w window) elapsed() time.Duration { return time.Since(w.start) }

// fits reports whether an operation expected to take d should still be
// started: it must have at least half of itself inside the window.
func (w window) fits(d time.Duration) bool { return w.elapsed()+d/2 < w.limit }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
