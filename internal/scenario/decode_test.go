package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const validYAML = `scenario_version: 1
name: t
fault:
  dtype: int8
  error:
    kind: bitflip
selector:
  kind: random
  rate: 1
run:
  trials: 20
  seed: 11
`

const validJSON = `{
  "scenario_version": 1,
  "name": "t",
  "fault": {"dtype": "int8", "error": {"kind": "bitflip"}},
  "selector": {"kind": "random", "rate": 1},
  "run": {"trials": 20, "seed": 11}
}`

func TestDecodeYAMLAndJSONAgree(t *testing.T) {
	fromYAML, err := Decode([]byte(validYAML))
	if err != nil {
		t.Fatalf("yaml: %v", err)
	}
	fromJSON, err := Decode([]byte(validJSON))
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	if !reflect.DeepEqual(fromYAML, fromJSON) {
		t.Errorf("yaml and json decode disagree:\nyaml: %+v\njson: %+v", fromYAML, fromJSON)
	}
	if fromYAML.Name != "t" || fromYAML.Run.Trials != 20 || fromYAML.Run.Seed != 11 {
		t.Errorf("decoded fields wrong: %+v", fromYAML)
	}
	// Decode returns the canonical form.
	if !reflect.DeepEqual(fromYAML, fromYAML.Canon()) {
		t.Error("Decode must return a canonicalized scenario")
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		is   error
		frag string // the error must name this, when set
	}{
		{"unknown top-level field", `{"scenario_version": 1, "wat": 1, "run": {"trials": 5}}`, ErrScenario, `"wat"`},
		{"unknown nested field", `{"fault": {"bitwidth": 8}, "run": {"trials": 5}}`, ErrScenario, `"bitwidth"`},
		// The engine's execution settings are not scenario keys: how
		// trials are grouped and resumed never changes a result, so a
		// file that sets one is rejected by name like any typo.
		{"run.schedule", "run:\n  trials: 5\n  schedule: pack\n", ErrScenario, `"schedule"`},
		{"run.trial_batch", "run:\n  trials: 5\n  trial_batch: 8\n", ErrScenario, `"trial_batch"`},
		{"run.prefix_reuse", "run:\n  trials: 5\n  prefix_reuse: false\n", ErrScenario, `"prefix_reuse"`},
		{"unsupported version", `{"scenario_version": 99, "run": {"trials": 5}}`, ErrVersion, ""},
		{"trailing content", `{"run": {"trials": 5}} {"again": true}`, ErrScenario, ""},
		{"yaml syntax", "a: {b: 1}\n", ErrScenario, ""},
		{"invalid after canon", `{"run": {"trials": 5, "workers": -3}}`, ErrScenario, ""},
		{"type mismatch", `{"run": {"trials": "many"}}`, ErrScenario, ""},
		{"empty", "", ErrScenario, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode([]byte(c.doc))
			if err == nil {
				t.Fatal("Decode must fail")
			}
			if !errors.Is(err, c.is) {
				t.Errorf("error %v does not wrap %v", err, c.is)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not name %s", err, c.frag)
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sc, err := Decode([]byte(validYAML))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("decoding Encode output: %v", err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("Encode∘Decode not the identity:\nin:  %+v\nout: %+v", sc, back)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("Encode output is not a fixed point")
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.yaml")
	if err := os.WriteFile(path, []byte(validYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "t" {
		t.Errorf("loaded name = %q", sc.Name)
	}

	if _, err := Load(filepath.Join(dir, "missing.yaml")); err == nil {
		t.Error("Load of a missing file must fail")
	}

	bad := filepath.Join(dir, "bad.yaml")
	if err := os.WriteFile(bad, []byte("run:\n  trials: -1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(bad)
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("Load error must name the file, got %v", err)
	}
}

func TestCommittedExamplesDecode(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected at least 3 committed example scenarios, found %d", len(entries))
	}
	for _, e := range entries {
		sc, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if sc.Name == "" {
			t.Errorf("%s: committed examples must carry a name", e.Name())
		}
	}
}

func TestIsJSONDocument(t *testing.T) {
	if !isJSONDocument([]byte("  \n\t{\"a\": 1}")) {
		t.Error("leading whitespace before { must sniff as JSON")
	}
	if isJSONDocument([]byte("a: 1")) || isJSONDocument(nil) {
		t.Error("non-JSON must not sniff as JSON")
	}
}
