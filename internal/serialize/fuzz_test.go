package serialize

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gofi/internal/campaign/stats"
	"gofi/internal/nn"
)

// fuzzModel builds a tiny model with every persisted state kind: conv
// and linear parameters plus batch-norm running statistics.
func fuzzModel(seed int64) nn.Layer {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("m",
		nn.NewConv2d("c", rng, 3, 2, 3, nn.Conv2dConfig{Pad: 1}),
		nn.NewBatchNorm2d("bn", 2),
		nn.NewGlobalAvgPool2d("gap"),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", rng, 2, 2, true),
	)
}

// FuzzLoadCorrupt feeds arbitrary bytes to Load: a corrupt or truncated
// checkpoint must surface as an error, never a panic — checkpoints come
// from disk and disks lie.
func FuzzLoadCorrupt(f *testing.F) {
	var good bytes.Buffer
	if err := Save(&good, fuzzModel(1)); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:len(good.Bytes())/2])
	f.Add([]byte("not a gob stream"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		model := fuzzModel(2)
		// Error or success are both fine; only a panic is a bug. A
		// successful load must have matched the architecture's shapes, so
		// spot-check the model still forward-runs by reading a parameter.
		if err := Load(bytes.NewReader(raw), model); err == nil {
			if n := len(nn.AllParams(model)); n == 0 {
				t.Fatal("load succeeded but model lost its parameters")
			}
		}
	})
}

// FuzzSaveLoadRoundTrip perturbs parameter values with arbitrary bit
// patterns and asserts Save → Load restores them bit-for-bit (or
// NaN-for-NaN: gob transports float32 through float64, which quiets NaN
// payloads, so NaN equality is by class, not bits).
func FuzzSaveLoadRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0x3f800000), uint32(0x7f800000))
	f.Add(uint32(0x7fc00000), uint32(0x80000001), uint32(0xff800000))
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		src := fuzzModel(3)
		vals := []float32{
			math.Float32frombits(a),
			math.Float32frombits(b),
			math.Float32frombits(c),
		}
		i := 0
		for _, p := range nn.AllParams(src) {
			d := p.Data.Data()
			for j := range d {
				d[j] = vals[i%len(vals)]
				i++
			}
		}

		var buf bytes.Buffer
		if err := Save(&buf, src); err != nil {
			t.Fatalf("save: %v", err)
		}
		dst := fuzzModel(4)
		if err := Load(&buf, dst); err != nil {
			t.Fatalf("load: %v", err)
		}

		sp, dp := nn.AllParams(src), nn.AllParams(dst)
		if len(sp) != len(dp) {
			t.Fatalf("parameter count %d vs %d", len(sp), len(dp))
		}
		for k := range sp {
			sd, dd := sp[k].Data.Data(), dp[k].Data.Data()
			for j := range sd {
				want, got := sd[j], dd[j]
				if math.IsNaN(float64(want)) && math.IsNaN(float64(got)) {
					continue
				}
				if math.Float32bits(want) != math.Float32bits(got) {
					t.Fatalf("param %q[%d]: wrote %x, read back %x",
						sp[k].Name, j, math.Float32bits(want), math.Float32bits(got))
				}
			}
		}
	})
}

// FuzzCampaignCheckpointLoad feeds arbitrary bytes to the campaign
// checkpoint decoder: corruption must always surface as an error, never a
// panic, and anything that decodes must satisfy the format's invariants.
func FuzzCampaignCheckpointLoad(f *testing.F) {
	var good bytes.Buffer
	st := stats.NewSequential(stats.StopRule{HalfWidth: 0.05}).State()
	if err := EncodeCampaignCheckpoint(&good, CampaignCheckpoint{
		ID: "fuzz", State: "running", NextTrial: 7, StopTrial: -1, Watcher: &st,
	}); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:len(good.Bytes())/2])
	f.Add([]byte(`{"v":2,"next_trial":0,"stop_trial":-1}`))
	f.Add([]byte(`{"v":1,"next_trial":-1,"stop_trial":-1}`))
	f.Add([]byte(`{"v":1,"next_trial":0,"stop_trial":-9}`))
	f.Add([]byte("not json at all"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		ck, err := DecodeCampaignCheckpoint(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if ck.Version != CampaignCheckpointVersion {
			t.Fatalf("decode accepted version %d", ck.Version)
		}
		if ck.NextTrial < 0 || ck.StopTrial < -1 {
			t.Fatalf("decode accepted invalid indices: next=%d stop=%d", ck.NextTrial, ck.StopTrial)
		}
	})
}

// FuzzCampaignCheckpointRoundTrip is the property test: any checkpoint
// built from fuzzer-chosen fields — including an arbitrary bit pattern
// for the float sum — encodes and decodes back to itself exactly.
func FuzzCampaignCheckpointRoundTrip(f *testing.F) {
	f.Add("c1", "running", 10, -1, uint64(0x3ff0000000000000), true)
	f.Add("", "paused", 0, 0, uint64(0x7ff8000000000001), false)
	f.Add("x\x00y", "done", 1<<20, 42, uint64(0x8000000000000000), true)
	f.Fuzz(func(t *testing.T, id, state string, next, stop int, sumBits uint64, withWatcher bool) {
		// encoding/json coerces invalid UTF-8 to U+FFFD (documented, not a
		// format property under test); compare in the coerced domain.
		id = strings.ToValidUTF8(id, "�")
		state = strings.ToValidUTF8(state, "�")
		if next < 0 {
			next = -next
		}
		if next < 0 { // math.MinInt negation overflow
			next = 0
		}
		if stop < -1 {
			stop = -1
		}
		ck := CampaignCheckpoint{
			ID:        id,
			State:     state,
			Spec:      json.RawMessage(`{"trials":3}`),
			NextTrial: next,
			StopTrial: stop,
			Agg:       AggregateState{Trials: next, ConfDropSumBits: sumBits},
		}
		if withWatcher {
			w := stats.NewSequential(stats.StopRule{HalfWidth: 0.01, MinTrials: 5})
			for i := 0; i < next%50; i++ {
				w.Observe(i, i%3 == 0, false)
			}
			st := w.State()
			ck.Watcher = &st
		}
		var buf bytes.Buffer
		if err := EncodeCampaignCheckpoint(&buf, ck); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeCampaignCheckpoint(&buf)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got.ID != ck.ID || got.State != ck.State || got.NextTrial != ck.NextTrial || got.StopTrial != ck.StopTrial {
			t.Fatalf("header round trip: got %+v want %+v", got, ck)
		}
		if got.Agg != ck.Agg {
			t.Fatalf("aggregate round trip: got %+v want %+v", got.Agg, ck.Agg)
		}
		if (got.Watcher == nil) != (ck.Watcher == nil) {
			t.Fatal("watcher presence changed")
		}
		if ck.Watcher != nil && *got.Watcher != *ck.Watcher {
			t.Fatalf("watcher round trip: got %+v want %+v", *got.Watcher, *ck.Watcher)
		}
	})
}
