package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// FuzzSpecDecode hardens the submission path: arbitrary bytes from the
// network must decode to a valid, runnable spec or return a named error —
// never panic, and never let an unknown wire version through.
func FuzzSpecDecode(f *testing.F) {
	f.Add(`{"v":1}`)
	f.Add(`{"v":1,"model":"alexnet","classes":4,"size":16,"trials":60}`)
	f.Add(`{"v":1,"error":"bitflip","scope":"weight","dtype":"fp16"}`)
	f.Add(`{"v":1,"schedule":"pack","trial_batch":8,"no_prefix_reuse":true}`)
	f.Add(`{"v":1,"backend":"int8","dtype":"int8","act_zp":true,"shards":4,"workers":8}`)
	f.Add(`{"v":1,"stop_ci":0.01,"stop_conf":0.99,"stop_min":50,"skip_errors":true}`)
	f.Add(`{"v":2}`)
	f.Add(`{"v":-1}`)
	f.Add(`{}`)
	f.Add(`{"v":1,"unknown_field":true}`)
	f.Add(`{"v":1,"trials":-5}`)
	f.Add(`{"v":1,"noise":1e308}`)
	f.Add(`[1,2,3]`)
	f.Add(`"spec"`)
	f.Add(`{"v":1,"model":"` + strings.Repeat("x", 300) + `"}`)
	f.Add("\xff\xfe{")
	f.Fuzz(func(t *testing.T, raw string) {
		sp, err := DecodeSpec(strings.NewReader(raw))
		if err != nil {
			// Every rejection carries one of the named sentinels.
			if !errors.Is(err, ErrSpec) && !errors.Is(err, ErrWireVersion) {
				t.Fatalf("unnamed decode error: %v", err)
			}
			return
		}
		// Accepted specs are canonical, validated, runnable and stable
		// under a wire round trip.
		if sp.V != WireVersion {
			t.Fatalf("accepted spec with version %d", sp.V)
		}
		if sp != sp.Canon() {
			t.Fatalf("accepted spec not canonical: %+v", sp)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("accepted spec fails validation: %v", err)
		}
		if _, err := sp.Config(); err != nil {
			t.Fatalf("accepted spec has no runnable config: %v", err)
		}
		if sp.envKey() == "" {
			t.Fatal("accepted spec has empty fixture key")
		}
		enc, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		again, err := DecodeSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v", err)
		}
		if again != sp {
			t.Fatalf("wire round trip drifted:\n got %+v\nwant %+v", again, sp)
		}
	})
}

// FuzzEventDecode hardens the client side of the stream: arbitrary lines
// must decode or error, never panic, and decoded events re-encode to an
// equivalent line.
func FuzzEventDecode(f *testing.F) {
	f.Add(`{"type":"hello","campaign":"c000001","state":"running"}`)
	f.Add(`{"type":"trial","trial":{"trial":3,"worker":0,"sample":17,"outcome":{"top1_changed":true,"top1_out_of_top5":false,"confidence_drop":0.25,"non_finite":false}}}`)
	f.Add(`{"type":"agg","agg":{"trials":64,"top1_mis":12,"rate":0.1875,"lo":0.1,"hi":0.3,"next_trial":64,"stop_trial":-1}}`)
	f.Add(`{"type":"done","state":"done"}`)
	f.Add(`{"type":"error","error":"boom"}`)
	f.Add(`{"type":42}`)
	f.Add(`null`)
	f.Add(``)
	f.Add("\x00\x01\x02")
	f.Fuzz(func(t *testing.T, raw string) {
		ev, err := DecodeEvent([]byte(raw))
		if err != nil {
			return
		}
		enc, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("decoded event does not re-encode: %v", err)
		}
		again, err := DecodeEvent(enc)
		if err != nil {
			t.Fatalf("re-encoded event rejected: %v", err)
		}
		// Pointers preclude direct equality; compare the re-encodings.
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("event round trip drifted: %s vs %s", enc, enc2)
		}
	})
}
