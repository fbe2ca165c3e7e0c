package main

import (
	"context"
	"testing"
)

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-dtype", "int4"},
		{"-backend", "int4"},
		{"-backend", "int8", "-dtype", "fp32"},
		{"-stop-ci", "0.5"},
		{"-stop-ci", "0.01", "-stop-conf", "0"},
		{"-stop-ci", "0.01", "-stop-min", "-1"},
		{"-nope"},
	} {
		if err := run(context.Background(), args); err == nil {
			t.Fatalf("run(%v) must fail", args)
		}
	}
}

// TestRunSmoke drives the whole study on a tiny budget: both backends,
// with and without a stop rule.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model fixture; skipped with -short")
	}
	for _, args := range [][]string{
		{"-size", "16", "-epochs", "3", "-trials", "3"},
		{"-size", "16", "-epochs", "3", "-trials", "3", "-backend", "int8", "-stop-ci", "0.4", "-stop-min", "2"},
	} {
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}
