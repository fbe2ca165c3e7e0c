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
		{"-trials", "0"},
		{"-trials", "-5"},
		// The engine's execution settings are not flags: values the
		// previous revision accepted are unknown flags now.
		{"-schedule", "auto"},
		{"-trial-batch", "8"},
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

// TestRunSmoke drives the whole study for one network on a tiny budget:
// both backends, a stop rule, and a scenario in place of the hand-wired
// arming.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model fixture; skipped with -short")
	}
	base := []string{"-models", "alexnet", "-size", "16", "-epochs", "3", "-trials", "4", "-workers", "1"}
	for _, extra := range [][]string{
		nil,
		{"-backend", "int8", "-stop-ci", "0.4", "-stop-min", "2"},
		{"-scenario", "../../examples/scenarios/neuron_bitflip.yaml"},
	} {
		args := append(append([]string(nil), base...), extra...)
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

// TestScenarioFileErrors: a missing or malformed -scenario file is a
// plain error before any training starts; so is a scenario that does
// not fit the INT8 study (wrong dtype, observers, backend conflict).
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
	fp32 := write("fp32.yaml", "fault:\n  dtype: fp32\n")
	obs := write("obs.yaml", "observers:\n  - kind: sdc\n")
	conflict := write("int8.yaml", "fault:\n  backend: int8\n")
	for _, args := range [][]string{
		{"-scenario", "does-not-exist.yaml"},
		{"-scenario", bad},
		{"-scenario", fp32},
		{"-scenario", obs},
		{"-scenario", conflict, "-backend", "f32"},
	} {
		if err := run(ctx, args); err == nil {
			t.Fatalf("run(%v) must fail", args)
		}
	}
}
