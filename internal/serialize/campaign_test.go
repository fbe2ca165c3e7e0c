package serialize

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
)

func sampleCheckpoint() CampaignCheckpoint {
	w := stats.NewSequential(stats.StopRule{HalfWidth: 0.05, Confidence: 0.9, MinTrials: 10})
	for t := 0; t < 40; t++ {
		w.Observe(t, t%7 == 0, t%13 == 0)
	}
	st := w.State()
	return CampaignCheckpoint{
		ID:        "c-test-01",
		State:     "running",
		Spec:      json.RawMessage(`{"v":1,"model":"convnet","trials":200}`),
		NextTrial: 40,
		StopTrial: -1,
		Agg: NewAggregateState(campaign.Aggregate{
			Trials:      40,
			Top1Mis:     6,
			OutOfTop5:   2,
			NonFinite:   1,
			BigConfDrop: 4,
			Skipped:     3,
			ConfDropSum: 0.1 + 0.2, // deliberately non-representable exactly
		}),
		Watcher: &st,
	}
}

// TestCampaignCheckpointRoundTrip pins that encode → decode restores the
// checkpoint exactly, including the float sum's bit pattern and the
// watcher's full fold state.
func TestCampaignCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	var buf bytes.Buffer
	if err := EncodeCampaignCheckpoint(&buf, ck); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeCampaignCheckpoint(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Version != CampaignCheckpointVersion {
		t.Fatalf("version %d, want %d", got.Version, CampaignCheckpointVersion)
	}
	if got.ID != ck.ID || got.State != ck.State || got.NextTrial != ck.NextTrial || got.StopTrial != ck.StopTrial {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Agg != ck.Agg {
		t.Fatalf("aggregate state mismatch:\n got %+v\nwant %+v", got.Agg, ck.Agg)
	}
	wantAgg := ck.Agg.Aggregate()
	gotAgg := got.Agg.Aggregate()
	if math.Float64bits(gotAgg.ConfDropSum) != math.Float64bits(wantAgg.ConfDropSum) {
		t.Fatalf("conf-drop sum bits changed: %x vs %x",
			math.Float64bits(gotAgg.ConfDropSum), math.Float64bits(wantAgg.ConfDropSum))
	}
	if got.Watcher == nil {
		t.Fatal("watcher state dropped")
	}
	if *got.Watcher != *ck.Watcher {
		t.Fatalf("watcher state mismatch:\n got %+v\nwant %+v", *got.Watcher, *ck.Watcher)
	}
	if !bytes.Equal(got.Spec, ck.Spec) {
		t.Fatalf("spec payload changed: %s vs %s", got.Spec, ck.Spec)
	}
}

// TestCampaignCheckpointVersionGate pins the named-error contract: an
// unknown version is rejected with ErrCheckpointVersion.
func TestCampaignCheckpointVersionGate(t *testing.T) {
	ck := sampleCheckpoint()
	var buf bytes.Buffer
	if err := EncodeCampaignCheckpoint(&buf, ck); err != nil {
		t.Fatalf("encode: %v", err)
	}
	bumped := strings.Replace(buf.String(), `"v":1`, `"v":99`, 1)
	if bumped == buf.String() {
		t.Fatal("test bug: version field not found in encoding")
	}
	_, err := DecodeCampaignCheckpoint(strings.NewReader(bumped))
	if !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("version 99: got %v, want ErrCheckpointVersion", err)
	}
}

// TestCampaignCheckpointRejectsCorrupt covers the decode guard rails:
// garbage, truncation and out-of-range indices all error, never panic.
func TestCampaignCheckpointRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"garbage":        "ceci n'est pas un checkpoint",
		"empty":          "",
		"negative next":  `{"v":1,"next_trial":-3,"stop_trial":-1}`,
		"bad stop":       `{"v":1,"next_trial":0,"stop_trial":-2}`,
		"wrong type":     `{"v":"one","next_trial":0}`,
		"version zero":   `{"next_trial":10}`,
		"truncated json": `{"v":1,"next_trial":`,
	}
	for name, raw := range cases {
		if _, err := DecodeCampaignCheckpoint(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: decode accepted %q", name, raw)
		}
	}
}

// TestSaveLoadCampaignCheckpoint exercises the atomic file path: save,
// load, overwrite with a later frontier, load again, and confirm the
// temp file did not linger.
func TestSaveLoadCampaignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c-test-01.ckpt")
	ck := sampleCheckpoint()
	if err := SaveCampaignCheckpoint(path, ck); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.NextTrial != ck.NextTrial || got.Agg != ck.Agg {
		t.Fatalf("first load mismatch: %+v", got)
	}

	ck.NextTrial = 80
	ck.Agg.Trials = 80
	if err := SaveCampaignCheckpoint(path, ck); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, err = LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got.NextTrial != 80 || got.Agg.Trials != 80 {
		t.Fatalf("overwrite not visible: %+v", got)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}

	if _, err := LoadCampaignCheckpoint(filepath.Join(dir, "absent.ckpt")); err == nil {
		t.Fatal("loading a missing checkpoint succeeded")
	}
}

// TestAggregateStateIdentity pins the converter pair on awkward floats:
// every bit pattern, including NaN payloads and negative zero, survives.
func TestAggregateStateIdentity(t *testing.T) {
	for _, bits := range []uint64{
		0, 0x8000000000000000, // ±0
		0x3ff0000000000000, // 1.0
		0x7ff0000000000000, // +Inf
		0x7ff8000000000001, // NaN with payload
		0x0000000000000001, // smallest subnormal
		math.Float64bits(0.30000000000000004),
	} {
		a := campaign.Aggregate{Trials: 9, ConfDropSum: math.Float64frombits(bits)}
		back := NewAggregateState(a).Aggregate()
		if math.Float64bits(back.ConfDropSum) != bits {
			t.Errorf("bits %x came back as %x", bits, math.Float64bits(back.ConfDropSum))
		}
		if back.Trials != 9 {
			t.Errorf("trials lost: %d", back.Trials)
		}
	}
}
