package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioDecode fuzzes the whole decode funnel (YAML subset →
// JSON → strict struct decode → Canon → Validate) and pins three
// contracts: Decode never panics, every failure wraps a named error
// (ErrScenario or ErrVersion), and every success is a canonical fixed
// point — Canon is the identity on it and Encode∘Decode∘Encode
// reproduces the encoding byte-for-byte.
func FuzzScenarioDecode(f *testing.F) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if data, err := os.ReadFile(filepath.Join(dir, e.Name())); err == nil {
				f.Add(data)
			}
		}
	}
	f.Add([]byte(validYAML))
	f.Add([]byte(validJSON))
	f.Add([]byte("scenario_version: 2\n"))
	f.Add([]byte("run:\n  trials: 5\nlayers:\n  - match: '*'\n    bits: [0, 3]\n"))
	f.Add([]byte(`{"fault": {"scope": "weight"}, "selector": {"kind": "fixed", "sites": [{"layer": "a", "idx": [1]}]}, "run": {"trials": 1}}`))
	f.Add([]byte("selector:\n  kind: sweep\n  sweep:\n    c: [0, 1]\n"))
	f.Add([]byte("run:\n  trials: 5\n  schedule: pack\n  trial_batch: 8\n  prefix_reuse: false\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrScenario) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode error %v wraps neither ErrScenario nor ErrVersion", err)
			}
			return
		}
		if !reflect.DeepEqual(sc, sc.Canon()) {
			t.Fatalf("decoded scenario is not a Canon fixed point: %+v", sc)
		}
		enc, err := sc.Encode()
		if err != nil {
			t.Fatalf("Encode of a decoded scenario failed: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding Encode output failed: %v\n%s", err, enc)
		}
		enc2, err := back.Encode()
		if err != nil {
			t.Fatalf("re-encoding failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("Encode is not a fixed point:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
	})
}
