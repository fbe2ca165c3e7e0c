package main

import (
	"bufio"
	"context"
	"encoding/json"
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

func TestRunRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{"-error", "nope"},
		{"-dtype", "nope"},
		{"-scope", "nope"},
		{"-trials", "0"},
		{"-trials", "-5"},
		{"-workers", "-1"},
		{"-definitely-not-a-flag"},
		// The engine's execution settings are not flags: values the
		// previous revision accepted are unknown flags now.
		{"-schedule", "auto"},
		{"-trial-batch", "8"},
		{"-prefix-reuse=false"},
		{"-stop-ci", "-0.1"},
		{"-stop-ci", "0.5"},
		{"-stop-ci", "0.005", "-stop-conf", "0"},
		{"-stop-ci", "0.005", "-stop-conf", "1.5"},
		{"-stop-ci", "0.005", "-stop-min", "-1"},
		{"-stratify", "-scope", "weight"},
		{"-stratify", "-error", "zero"},
		{"-dedup", "-scope", "fmap"},
		{"-shards", "0"},
		{"-shards", "4"}, // sharding is submit-mode only
		{"-submit", "http://127.0.0.1:1", "-stratify"},
		{"-submit", "http://127.0.0.1:1", "-dedup"},
	} {
		if err := run(ctx, args, os.Stdout); err == nil {
			t.Fatalf("run(%v) must fail", args)
		}
	}
}

// TestSubmitMode drives the -submit client path against an in-process
// campaign service: the CLI ships the spec, streams the records into the
// -jsonl file, and renders the summary table from the service aggregate.
func TestSubmitMode(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model fixture; skipped with -short")
	}
	srv, err := serve.New(serve.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	dir := t.TempDir()
	jsonl := filepath.Join(dir, "trials.jsonl")
	outPath := filepath.Join(dir, "out.txt")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	args := []string{
		"-submit", hs.URL, "-shards", "2",
		"-model", "alexnet", "-classes", "4", "-size", "16", "-epochs", "6",
		"-noise", "0.2", "-seed", "42", "-trials", "20", "-workers", "2",
		"-skip-errors", "-jsonl", jsonl,
	}
	if err := run(context.Background(), args, out); err != nil {
		t.Fatalf("submit mode: %v", err)
	}
	buf, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(buf)
	for _, want := range []string{"submitted campaign c000001", "(done)", "Trials", "99% CI"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}

	// The -jsonl file carries one index-ordered record per trial — the
	// same stream a local run writes.
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
	if err := run(context.Background(), []string{"-submit", "http://127.0.0.1:1", "-trials", "5"}, out); err == nil {
		t.Fatal("submit to a dead server succeeded")
	}
}

// TestScenarioFlagConflicts: -scenario owns the model fixture and fault
// shape, so the corresponding flags must be rejected up front (and a
// missing or malformed file is a plain error).
func TestScenarioFlagConflicts(t *testing.T) {
	ctx := context.Background()
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("scenario_version: 99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scenario", "does-not-exist.yaml"},
		{"-scenario", bad},
		{"-scenario", "x.yaml", "-model", "alexnet"},
		{"-scenario", "x.yaml", "-error", "zero"},
		{"-scenario", "x.yaml", "-scope", "weight"},
		{"-scenario", "x.yaml", "-dtype", "fp16"},
		{"-scenario", "x.yaml", "-backend", "int8"},
		{"-scenario", "x.yaml", "-act-zp"},
		{"-scenario", "x.yaml", "-classes", "4"},
		{"-scenario", "x.yaml", "-size", "16"},
		{"-scenario", "x.yaml", "-epochs", "2"},
		{"-scenario", "x.yaml", "-noise", "0.3"},
		{"-scenario", "x.yaml", "-stratify"},
		{"-scenario", "x.yaml", "-dedup"},
	} {
		if err := run(ctx, args, os.Stdout); err == nil {
			t.Fatalf("run(%v) must fail", args)
		}
	}
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
			tmp := t.TempDir()
			outPath := filepath.Join(tmp, "out.txt")
			out, err := os.Create(outPath)
			if err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			jsonl := filepath.Join(tmp, "trials.jsonl")
			if err := run(context.Background(), []string{"-scenario", path, "-jsonl", jsonl}, out); err != nil {
				t.Fatalf("run(-scenario %s): %v", e.Name(), err)
			}
			buf, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			text := string(buf)
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

// TestScenarioRunKnobOverride: explicit run-knob flags override the
// scenario file's run block (a smaller -trials budget shrinks the record
// stream accordingly), and what the flags leave alone is the file's: the
// summary reports the budget and the stop confidence the run resolved
// to, not the flag defaults (1000 trials, 95%).
func TestScenarioRunKnobOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model fixture; skipped with -short")
	}
	example, err := os.ReadFile("../../examples/scenarios/per_layer_zero.json")
	if err != nil {
		t.Fatal(err)
	}
	withStop := filepath.Join(t.TempDir(), "with_stop.json")
	fileRun := `"run": {"trials": 20, "seed": 11, "workers": 2}`
	if !strings.Contains(string(example), fileRun) {
		t.Fatalf("example scenario no longer declares %s", fileRun)
	}
	stopRun := `"run": {"trials": 40, "seed": 11, "workers": 2, "stop": {"ci": 0.2, "conf": 0.9, "min": 10}}`
	if err := os.WriteFile(withStop, []byte(strings.Replace(string(example), fileRun, stopRun, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		args        []string
		wantRecords int
		// wantBudget, when positive, expects a fired stop rule whose
		// "Trials saved" row counts from this budget at a 90% estimator CI.
		wantBudget int
	}{
		{"trials flag overrides the file", []string{"-scenario", "../../examples/scenarios/per_layer_zero.json", "-trials", "8", "-workers", "1"}, 8, 0},
		{"file budget and stop confidence reach the summary", []string{"-scenario", withStop}, 0, 40},
	} {
		t.Run(c.name, func(t *testing.T) {
			tmp := t.TempDir()
			outPath := filepath.Join(tmp, "out.txt")
			out, err := os.Create(outPath)
			if err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			jsonl := filepath.Join(tmp, "trials.jsonl")
			if err := run(context.Background(), append(c.args, "-jsonl", jsonl), out); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(jsonl)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			lines := 0
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				lines++
			}
			if c.wantRecords > 0 && lines != c.wantRecords {
				t.Fatalf("jsonl has %d records, want the -trials override of %d", lines, c.wantRecords)
			}
			if c.wantBudget == 0 {
				return
			}
			summary, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			row := func(label string) int {
				m := regexp.MustCompile(regexp.QuoteMeta(label) + `\s+(-?\d+)`).FindSubmatch(summary)
				if m == nil {
					t.Fatalf("summary has no %q row:\n%s", label, summary)
				}
				n, _ := strconv.Atoi(string(m[1]))
				return n
			}
			stopAt := row("Early stop at trial")
			if lines != stopAt+1 {
				t.Errorf("jsonl has %d records, want the %d trials up to the stop", lines, stopAt+1)
			}
			if got, want := row("Trials saved"), c.wantBudget-stopAt-1; got != want {
				t.Errorf("Trials saved = %d, want %d (the file's budget of %d less the %d trials run)", got, want, c.wantBudget, stopAt+1)
			}
			if !strings.Contains(string(summary), "Estimator 90% CI") {
				t.Errorf("estimator CI is not labelled with the file's 90%% confidence:\n%s", summary)
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
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "metrics.json")
	out, err := os.Create(filepath.Join(dir, "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	const trials = 40
	args := []string{
		"-model", "alexnet", "-classes", "4", "-size", "16", "-epochs", "4", "-seed", "9",
		"-scope", "weight", "-error", "bitflip", "-dtype", "fp32",
		"-trials", strconv.Itoa(trials), "-workers", "2", "-metrics", snapPath,
	}
	if err := run(context.Background(), args, out); err != nil {
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
