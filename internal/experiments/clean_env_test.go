package experiments

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/obs"
)

// envRecords runs one leg of env and returns its records by local index,
// the timing-dependent worker attribution zeroed.
func envRecords(env *CampaignEnv, sr ShardRun) ([]campaign.TrialRecord, error) {
	recs := make([]campaign.TrialRecord, sr.Trials)
	sr.Sinks = []campaign.TrialSink{campaign.SinkFunc(func(r campaign.TrialRecord) error {
		r.Worker = 0
		recs[r.Trial-sr.Offset] = r
		return nil
	})}
	_, err := env.Run(context.Background(), sr)
	return recs, err
}

// TestCampaignEnvOwnsTheCleanPass: on one prepared environment, two
// campaigns (value copies on their own engine seeds, as the studies' legs
// are) and the four shards of a third start at once and between them run
// each sample's clean pass exactly once; a campaign that follows runs
// none. Every one of them returns the records of a copy of the
// environment in the reference configuration, which uses no cache.
func TestCampaignEnvOwnsTheCleanPass(t *testing.T) {
	skipIfShort(t)
	env, err := PrepareGenericCampaign(context.Background(), GenericCampaignConfig{
		Model: "alexnet", Classes: 4, InSize: 16, TrainEpochs: 6, Noise: 0.2,
		Trials: 160, Workers: 2, Seed: 11, DType: core.FP32, PrefixReuse: true,
		Arm: func(inj *core.Injector, rng *rand.Rand) error {
			_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	type leg struct {
		env *CampaignEnv
		sr  ShardRun
	}
	var legs []leg
	for _, seed := range []int64{501, 502} {
		c := *env
		c.CampaignSeed = seed
		legs = append(legs, leg{&c, ShardRun{Trials: env.Cfg.Trials}})
	}
	for _, r := range campaign.SplitTrials(0, env.Cfg.Trials, 4) {
		legs = append(legs, leg{env, ShardRun{Offset: r.Lo, Trials: r.Len()}})
	}

	reg := obs.NewRegistry()
	got := make([][]campaign.TrialRecord, len(legs))
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for i, l := range legs {
		l.sr.Metrics = reg
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = envRecords(l.env, l.sr)
		}()
	}
	wg.Wait()

	reference := func(l leg) []campaign.TrialRecord {
		t.Helper()
		ref := *l.env
		ref.Cfg.Workers, ref.Cfg.Schedule, ref.Cfg.PrefixReuse = 1, campaign.ScheduleSeq, false
		l.sr.Metrics = nil // the leg's counters are the measured run's alone
		want, err := envRecords(&ref, l.sr)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	union, asked := make(map[int]bool), 0
	for i, l := range legs {
		if errs[i] != nil {
			t.Fatalf("leg %d: %v", i, errs[i])
		}
		want := reference(l)
		seen := make(map[int]bool)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("leg %d trial %d:\n got  %+v\n want %+v", i, j, got[i][j], want[j])
			}
			seen[want[j].Sample], union[want[j].Sample] = true, true
		}
		asked += len(seen)
	}
	computed, reused := reg.Counter(campaign.MetricCleanComputed).Value(), reg.Counter(campaign.MetricCleanReused).Value()
	if computed != int64(len(union)) || computed+reused != int64(asked) {
		t.Fatalf("computed %d reused %d: want each of the %d samples computed once and the other %d requests served from the environment's cache", computed, reused, len(union), asked-len(union))
	}

	// Warm: a whole campaign on the shards' seed draws only samples the
	// environment has seen.
	warm := leg{env, ShardRun{Trials: env.Cfg.Trials, Metrics: obs.NewRegistry()}}
	recs, err := envRecords(warm.env, warm.sr)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range reference(warm) {
		if recs[j] != want {
			t.Fatalf("warm trial %d:\n got  %+v\n want %+v", j, recs[j], want)
		}
	}
	if c := warm.sr.Metrics.Counter(campaign.MetricCleanComputed).Value(); c != 0 {
		t.Fatalf("a campaign on a warm environment computed %d clean passes, want 0", c)
	}
	if hits := warm.sr.Metrics.Counter(campaign.MetricPrefixHits).Value(); hits == 0 {
		t.Fatal("no trial of the warm campaign resumed from the environment's checkpoints")
	}
}
