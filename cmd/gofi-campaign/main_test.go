package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/obs"
	"gofi/internal/serve"
)

// capture runs the CLI with args and returns what it printed to stdout.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	runErr := run(context.Background(), args, out)
	buf, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(buf), runErr
}

// rejected is a command line that must fail with an error naming the
// offending flag or spec field.
type rejected struct {
	want string
	args []string
}

func mustReject(t *testing.T, rows []rejected) {
	t.Helper()
	for _, c := range rows {
		err := run(context.Background(), c.args, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", c.args, err, c.want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	mustReject(t, []rejected{
		{`error model "nope"`, []string{"-error", "nope"}},
		{`dtype "nope"`, []string{"-dtype", "nope"}},
		{`scope "nope"`, []string{"-scope", "nope"}},
		{"-trials must be positive", []string{"-trials", "0"}},
		{"trials must be positive", []string{"-trials", "-5"}},
		{"workers must be >= 1", []string{"-workers", "-1"}},
		{"-definitely-not-a-flag", []string{"-definitely-not-a-flag"}},
		// The engine's execution settings are not flags: values the
		// previous revision accepted are unknown flags now.
		{"-schedule", []string{"-schedule", "auto"}},
		{"-trial-batch", []string{"-trial-batch", "8"}},
		{"-prefix-reuse", []string{"-prefix-reuse=false"}},
		{"-stop-ci", []string{"-stop-ci", "-0.1"}},
		{"-stop-ci", []string{"-stop-ci", "0.5"}},
		{"-stop-conf", []string{"-stop-ci", "0.005", "-stop-conf", "0"}},
		{"-stop-conf", []string{"-stop-ci", "0.005", "-stop-conf", "1.5"}},
		{"-stop-min", []string{"-stop-ci", "0.005", "-stop-min", "-1"}},
		{"stratify", []string{"-stratify", "-scope", "weight"}},
		{"stratify", []string{"-stratify", "-error", "zero"}},
		{"dedup", []string{"-dedup", "-scope", "fmap"}},
		{"-shards must be positive", []string{"-shards", "0"}},
		{"shards must be >= 1", []string{"-shards", "-2", "-submit", "http://127.0.0.1:1"}},
		{"-shards only applies", []string{"-shards", "4"}}, // sharding is submit-mode only
		// What the wire cannot carry fails before anything is sent.
		{"-stratify locally", []string{"-submit", "http://127.0.0.1:1", "-stratify"}},
		{"-dedup locally", []string{"-submit", "http://127.0.0.1:1", "-dedup"}},
		{"observers", []string{"-submit", "http://127.0.0.1:1", "-scenario", "../../examples/scenarios/int8_stored_code.yaml"}},
		{"run.trials", []string{"-submit", "http://127.0.0.1:1", "-scenario", "../../examples/scenarios/sweep_conv5_bit0.yaml"}},
	})
}

// TestSubmitMode drives the -submit client path against an in-process
// campaign service: the CLI ships the spec, streams the records into the
// -jsonl file, and renders the summary table from the service aggregate.
func TestSubmitMode(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model fixture; skipped with -short")
	}
	jsonl := filepath.Join(t.TempDir(), "trials.jsonl")
	text, err := capture(t,
		"-submit", newService(t), "-shards", "2",
		"-model", "alexnet", "-classes", "4", "-size", "16", "-epochs", "6",
		"-noise", "0.2", "-seed", "42", "-trials", "20", "-workers", "2",
		"-skip-errors", "-jsonl", jsonl)
	if err != nil {
		t.Fatalf("submit mode: %v", err)
	}
	for _, want := range []string{"submitted campaign c000001", "(done)", "Trials", "99% CI"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}

	// The -jsonl file carries one index-ordered record per trial, equal
	// to the local run's record for that trial.
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if !strings.Contains(sc.Text(), `"trial":`) {
			t.Fatalf("line %d is not a trial record: %s", lines, sc.Text())
		}
		lines++
	}
	if lines != 20 {
		t.Fatalf("jsonl has %d records, want 20", lines)
	}

	// A dead server is a plain error, not a hang.
	if _, err := capture(t, "-submit", "http://127.0.0.1:1", "-trials", "5"); err == nil {
		t.Fatal("submit to a dead server succeeded")
	}
}

// TestScenarioFlagConflicts: -scenario owns the model fixture and fault
// shape, so the corresponding flags must be rejected up front (and a
// missing or malformed file is a plain error).
func TestScenarioFlagConflicts(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("scenario_version: 99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const file = "../../examples/scenarios/neuron_bitflip.yaml"
	const owns = "a scenario owns the model fixture and fault shape"
	mustReject(t, []rejected{
		{"does-not-exist.yaml", []string{"-scenario", "does-not-exist.yaml"}},
		{"scenario_version", []string{"-scenario", bad}},
		{owns, []string{"-scenario", file, "-model", "alexnet"}},
		{owns, []string{"-scenario", file, "-error", "zero"}},
		{owns, []string{"-scenario", file, "-scope", "weight"}},
		{owns, []string{"-scenario", file, "-dtype", "fp16"}},
		{owns, []string{"-scenario", file, "-backend", "int8"}},
		{owns, []string{"-scenario", file, "-act-zp"}},
		{owns, []string{"-scenario", file, "-classes", "4"}},
		{owns, []string{"-scenario", file, "-size", "16"}},
		{owns, []string{"-scenario", file, "-epochs", "2"}},
		{owns, []string{"-scenario", file, "-noise", "0.3"}},
		{owns, []string{"-scenario", file, "-stratify"}},
		{owns, []string{"-scenario", file, "-dedup"}},
	})
}

// TestScenarioExamples executes every committed example scenario
// end-to-end through the CLI against its own small fixture — including
// the int8 stored-code example, which drives per-layer rules through
// the quantized backend.
func TestScenarioExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("trains one model fixture per example; skipped with -short")
	}
	dir := "../../examples/scenarios"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("want at least 3 committed example scenarios, found %d", len(entries))
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			jsonl := filepath.Join(t.TempDir(), "trials.jsonl")
			text, err := capture(t, "-scenario", path, "-jsonl", jsonl)
			if err != nil {
				t.Fatalf("run(-scenario %s): %v", e.Name(), err)
			}
			for _, want := range []string{"GoFI campaign — scenario", "clean accuracy", "Trials"} {
				if !strings.Contains(text, want) {
					t.Fatalf("output missing %q:\n%s", want, text)
				}
			}
			if strings.Contains(e.Name(), "int8_stored_code") && !strings.Contains(text, "(int8 backend)") {
				t.Fatalf("int8 stored-code run did not report the int8 backend:\n%s", text)
			}
			jb, err := os.ReadFile(jsonl)
			if err != nil || len(jb) == 0 {
				t.Fatalf("jsonl stream empty (err=%v)", err)
			}
		})
	}
}

// newService starts an in-process campaign service for -submit runs.
func newService(t *testing.T) string {
	t.Helper()
	srv, err := serve.New(serve.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return hs.URL
}

// TestScenarioRunKnobOverride: explicit run-knob flags override the
// scenario file's run block (a smaller -trials budget shrinks the record
// stream accordingly), and what the flags leave alone is the file's: the
// summary reports the budget and the stop confidence the run resolved
// to, not the flag defaults (1000 trials, 95%). The stop knobs follow the
// same rule one by one — -stop-conf alone changes the level of the file's
// rule and nothing else — and mean the same locally and over the wire.
func TestScenarioRunKnobOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model fixture; skipped with -short")
	}
	example, err := os.ReadFile("../../examples/scenarios/per_layer_zero.json")
	if err != nil {
		t.Fatal(err)
	}
	fileRun := `"run": {"trials": 20, "seed": 11, "workers": 2}`
	if !strings.Contains(string(example), fileRun) {
		t.Fatalf("example scenario no longer declares %s", fileRun)
	}
	withRun := func(name, run string) string {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(strings.Replace(string(example), fileRun, run, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	withStop := withRun("with_stop.json", `"run": {"trials": 40, "seed": 11, "workers": 2, "stop": {"ci": 0.2, "conf": 0.9, "min": 10}}`)
	longStop := withRun("long_stop.json", `"run": {"trials": 400, "seed": 11, "workers": 2, "stop": {"ci": 0.2, "conf": 0.9, "min": 10}}`)
	for _, c := range []struct {
		name        string
		args        []string
		wantRecords int
		// wantBudget, when positive, expects a fired stop rule whose
		// "Trials saved" row counts from this budget at a wantConf%
		// estimator CI.
		wantBudget, wantConf int
		// served runs the row against a campaign service as well.
		served bool
	}{
		{"trials flag overrides the file", []string{"-scenario", "../../examples/scenarios/per_layer_zero.json", "-trials", "8", "-workers", "1"}, 8, 0, 0, false},
		{"file budget and stop confidence reach the summary", []string{"-scenario", withStop}, 0, 40, 90, false},
		{"stop-conf alone keeps the file's half-width and floor", []string{"-scenario", longStop, "-stop-conf", "0.8"}, 0, 400, 80, true},
	} {
		check := func(t *testing.T, args []string) {
			jsonl := filepath.Join(t.TempDir(), "trials.jsonl")
			summary, err := capture(t, append(args, "-jsonl", jsonl)...)
			if err != nil {
				t.Fatal(err)
			}
			records, err := os.ReadFile(jsonl)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Count(string(records), "\n")
			if c.wantRecords > 0 && lines != c.wantRecords {
				t.Fatalf("jsonl has %d records, want the -trials override of %d", lines, c.wantRecords)
			}
			if c.wantBudget == 0 {
				return
			}
			row := func(label string) int {
				m := regexp.MustCompile(regexp.QuoteMeta(label) + `\s+(-?\d+)`).FindStringSubmatch(summary)
				if m == nil {
					t.Fatalf("summary has no %q row:\n%s", label, summary)
				}
				n, _ := strconv.Atoi(m[1])
				return n
			}
			stopAt := row("Early stop at trial")
			if lines != stopAt+1 {
				t.Errorf("jsonl has %d records, want the %d trials up to the stop", lines, stopAt+1)
			}
			if got, want := row("Trials saved"), c.wantBudget-stopAt-1; got != want {
				t.Errorf("Trials saved = %d, want %d (the file's budget of %d less the %d trials run)", got, want, c.wantBudget, stopAt+1)
			}
			if label := fmt.Sprintf("Estimator %d%% CI", c.wantConf); !strings.Contains(summary, label) {
				t.Errorf("no %q row: the estimator CI is not at the resolved confidence:\n%s", label, summary)
			}
		}
		t.Run(c.name, func(t *testing.T) { check(t, c.args) })
		if c.served {
			t.Run(c.name+"/served", func(t *testing.T) { check(t, append(c.args, "-submit", newService(t))) })
		}
	}
}

// TestLocalEqualsSubmit: one command line means one campaign and prints
// one report, whether it runs in this process or on a campaign service.
// Only the "submitted campaign" line and the id and state in the header
// tell the two outputs apart.
func TestLocalEqualsSubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("trains model fixtures; skipped with -short")
	}
	url := newService(t)
	fixture := []string{"-model", "alexnet", "-classes", "4", "-size", "16", "-epochs", "4", "-seed", "9", "-workers", "2"}
	served := regexp.MustCompile(`(?m)^submitted campaign .*\n|c\d{6} \(done\) `)
	for _, c := range []struct {
		name string
		args []string
		// rows are summary rows the case exists to cover.
		rows []string
	}{
		{"flat neuron", append([]string{"-trials", "40", "-dtype", "fp32"}, fixture...), nil},
		{"weight scope, skipped errors", append([]string{"-trials", "30", "-scope", "weight", "-dtype", "fp32", "-skip-errors"}, fixture...), nil},
		{"example scenario", []string{"-scenario", "../../examples/scenarios/layer_rules.yaml"}, []string{"scenario layer-rules"}},
		{"stop rule fires", append([]string{"-trials", "600", "-scope", "fmap", "-dtype", "fp32", "-stop-ci", "0.1", "-stop-conf", "0.9", "-stop-min", "20"}, fixture...),
			[]string{"Early stop at trial", "Trials saved", "Estimator 90% CI (%)"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			local, err := capture(t, c.args...)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := capture(t, append(c.args, "-submit", url, "-shards", "2")...)
			if err != nil {
				t.Fatal(err)
			}
			if !served.MatchString(remote) {
				t.Fatalf("served run does not identify its campaign:\n%s", remote)
			}
			if got := served.ReplaceAllString(remote, ""); got != local {
				t.Errorf("served report differs from the local one:\n--- local\n%s--- served\n%s", local, got)
			}
			for _, row := range c.rows {
				if !strings.Contains(local, row) {
					t.Errorf("report has no %q row:\n%s", row, local)
				}
			}
		})
	}
}

// TestWeightScopeResumesFromCheckpoints: -scope weight must build
// per-worker weight copies (IsolateWeights), seen here from the outside:
// the engine resumes weight-armed trials from the shared clean checkpoints
// only when no other worker reads the mutated storage, so checkpoint hits
// under -workers 2 mean the replicas are isolated. On shared weights every
// one of these trials would be a fallback.
func TestWeightScopeResumesFromCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model fixture; skipped with -short")
	}
	snapPath := filepath.Join(t.TempDir(), "metrics.json")
	const trials = 40
	if _, err := capture(t,
		"-model", "alexnet", "-classes", "4", "-size", "16", "-epochs", "4", "-seed", "9",
		"-scope", "weight", "-error", "bitflip", "-dtype", "fp32",
		"-trials", strconv.Itoa(trials), "-workers", "2", "-metrics", snapPath); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatal(err)
	}
	hits, misses, fallbacks := snap.Counters[campaign.MetricPrefixHits], snap.Counters[campaign.MetricPrefixMisses], snap.Counters[campaign.MetricPrefixFallbacks]
	if hits+misses+fallbacks != trials {
		t.Fatalf("hits %d + misses %d + fallbacks %d != %d trials", hits, misses, fallbacks, trials)
	}
	if hits == 0 {
		t.Fatalf("no weight trial resumed from a checkpoint (fallbacks %d of %d): replicas share weight storage", fallbacks, trials)
	}
	if _, ok := snap.Gauges[campaign.MetricPrefixEvictions]; !ok {
		t.Fatalf("exit snapshot has no %s gauge", campaign.MetricPrefixEvictions)
	}
	if snap.Gauges[campaign.MetricPrefixStoreBytes] <= 0 {
		t.Fatalf("%s = %v, want the warmed working set", campaign.MetricPrefixStoreBytes, snap.Gauges[campaign.MetricPrefixStoreBytes])
	}
}
