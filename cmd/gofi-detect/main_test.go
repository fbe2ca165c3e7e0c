package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		// The engine's execution settings are not flags: values the
		// previous revision accepted are unknown flags now.
		{"-schedule", "auto"},
		{"-trial-batch", "1"},
		{"-prefix-reuse=false"},
		{"-stop-ci", "-0.1"},
		{"-stop-ci", "0.5"},
		{"-stop-ci", "0.005", "-stop-conf", "0"},
		{"-stop-ci", "0.005", "-stop-conf", "1"},
		{"-stop-ci", "0.005", "-stop-min", "-1"},
	} {
		if err := run(ctx, args); err == nil {
			t.Fatalf("run(%v) must fail", args)
		}
	}
}

// TestScenarioFileErrors: a missing or malformed -scenario file is a
// plain error before any training starts; so is a scenario outside the
// FP32 detection study's shape (int8 domain, observers).
func TestScenarioFileErrors(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bad := write("bad.yaml", "scenario_version: 99\n")
	int8 := write("int8.yaml", "fault:\n  dtype: int8\n")
	obs := write("obs.yaml", "fault:\n  dtype: fp32\nobservers:\n  - kind: mse\n")
	for _, args := range [][]string{
		{"-scenario", "does-not-exist.yaml"},
		{"-scenario", bad},
		{"-scenario", int8},
		{"-scenario", obs},
	} {
		if err := run(ctx, args); err == nil {
			t.Fatalf("run(%v) must fail", args)
		}
	}
}
