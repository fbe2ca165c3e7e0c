package campaign

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gofi/internal/core"
	"gofi/internal/data"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// runRecords runs cfg and returns its records by local trial index, the
// timing-dependent worker attribution zeroed.
func runRecords(t *testing.T, cfg Config) []TrialRecord {
	t.Helper()
	recs, err := tryRecords(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func tryRecords(cfg Config) ([]TrialRecord, error) {
	recs := make([]TrialRecord, cfg.Trials)
	cfg.Sinks = []TrialSink{SinkFunc(func(r TrialRecord) error {
		r.Worker = 0
		recs[r.Trial-cfg.Offset] = r
		return nil
	})}
	_, err := Run(context.Background(), cfg)
	return recs, err
}

// reference is cfg under the plainest configuration the engine has: one
// worker, one trial per forward, nothing reused or shared.
func reference(cfg Config) Config {
	cfg.Workers, cfg.Schedule, cfg.PrefixReuse, cfg.Clean, cfg.Metrics = 1, ScheduleSeq, false, nil, nil
	return cfg
}

func distinctSamples(recs []TrialRecord) map[int]bool {
	seen := make(map[int]bool)
	for _, r := range recs {
		seen[r.Sample] = true
	}
	return seen
}

func neuronBitFlip(inj *core.Injector, rng *rand.Rand, _ int) error {
	_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
	return err
}

// cleanFixtures are the three fault shapes whose clean pass a cache may
// own: neuron faults on replicas sharing f32 weights, the same on the int8
// backend, and weight faults on replicas with private copies.
func cleanFixtures(t *testing.T) map[string]Config {
	t.Helper()
	out := make(map[string]Config)
	for _, name := range []string{"neuron/f32", "neuron/int8", "weight/isolated"} {
		ds, model, eligible := trainedSetup(t)
		cfg := Config{Trials: 80, Seed: 31, Source: ds, Eligible: eligible, TrialBatch: 8, ArmTrial: neuronBitFlip}
		switch name {
		case "neuron/f32":
			cfg.NewReplica = replicaFactory(t, model)
		case "neuron/int8":
			cfg.NewReplica = int8ReplicaFactory(t, ds, model)
		default:
			cfg.NewReplica = isolatedReplicaFactory(t, ds, model, false)
			cfg.TrialBatch = 0
			cfg.ArmTrial = func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomWeight(rng, core.BitFlip{Bit: core.RandomBit})
				return err
			}
		}
		out[name] = cfg
	}
	return out
}

// TestCleanCacheWarmEqualsCold: a Run on a cache that already holds every
// clean pass returns, field for field, the records of the Run that filled
// it and of the reference configuration, which shares nothing — for every
// fault shape, at one worker and at eight. The warm Run computes no clean
// pass and still plans from timed costs; a cache too small for the
// working set evicts and changes nothing.
func TestCleanCacheWarmEqualsCold(t *testing.T) {
	for name, base := range cleanFixtures(t) {
		t.Run(name, func(t *testing.T) {
			ref := runRecords(t, reference(base))
			changed := 0
			for _, r := range ref {
				if r.Outcome.Top1Changed || r.Outcome.ConfidenceDrop != 0 {
					changed++
				}
			}
			if changed == 0 {
				t.Fatal("no fault changed any output; equal records would prove nothing")
			}
			distinct := int64(len(distinctSamples(ref)))

			run := func(label string, workers int, cache *CleanCache) *obs.Registry {
				t.Helper()
				cfg := base
				cfg.Workers, cfg.PrefixReuse, cfg.Clean, cfg.Metrics = workers, true, cache, obs.NewRegistry()
				got := runRecords(t, cfg)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("workers=%d %s, trial %d:\n got  %+v\n want %+v", workers, label, i, got[i], ref[i])
					}
				}
				return cfg.Metrics
			}
			counts := func(reg *obs.Registry) (computed, reused int64) {
				return reg.Counter(MetricCleanComputed).Value(), reg.Counter(MetricCleanReused).Value()
			}
			for _, workers := range []int{1, 8} {
				cache := NewCleanCache(16 << 20)
				if c, r := counts(run("cold", workers, cache)); c != distinct || r != 0 {
					t.Fatalf("workers=%d cold: computed %d reused %d, want %d/0", workers, c, r, distinct)
				}
				warm := run("warm", workers, cache)
				if c, r := counts(warm); c != 0 || r != distinct {
					t.Fatalf("workers=%d warm: computed %d reused %d, want 0/%d", workers, c, r, distinct)
				}
				if base.TrialBatch > 1 {
					if src := warm.Gauge(MetricSchedCostSource).Value(); src != costSourceTimed {
						t.Fatalf("workers=%d warm: cost source %v, want the cache's timed costs (%d)", workers, src, costSourceTimed)
					}
				}
				if ev := warm.Gauge(MetricPrefixEvictions).Value(); ev != 0 {
					t.Fatalf("workers=%d: %v evictions from a store that fits the working set", workers, ev)
				}

				// The widest boundary of the test convnet is 8×16×16 floats;
				// two of them is a fraction of one sample's walk.
				tight := NewCleanCache(2 * 8 * 16 * 16 * 4)
				run("tight, cold", workers, tight)
				if ev := run("tight, warm", workers, tight).Gauge(MetricPrefixEvictions).Value(); ev == 0 {
					t.Fatalf("workers=%d: a two-snapshot store evicted nothing", workers)
				}
			}
		})
	}
}

// TestCleanCacheConcurrentRunsComputeOnce: two campaigns and the four
// shards of a third, all started at once on one cache, run each sample's
// clean pass exactly once between them and return the records their
// serial references return.
func TestCleanCacheConcurrentRunsComputeOnce(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	base := Config{
		Workers: 2, Trials: 120, Seed: 41, NewReplica: replicaFactory(t, model),
		Source: ds, Eligible: eligible, TrialBatch: 8, ArmTrial: neuronBitFlip,
	}
	var legs []Config
	for _, seed := range []int64{41, 42} {
		cfg := base
		cfg.Seed = seed
		legs = append(legs, cfg)
	}
	for _, r := range SplitTrials(0, base.Trials, 4) {
		cfg := base
		cfg.Seed, cfg.Offset, cfg.Trials = 43, r.Lo, r.Len()
		legs = append(legs, cfg)
	}

	cache, reg := NewCleanCache(16<<20), obs.NewRegistry()
	got := make([][]TrialRecord, len(legs))
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for i, cfg := range legs {
		cfg.PrefixReuse, cfg.Clean, cfg.Metrics = true, cache, reg
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = tryRecords(cfg)
		}()
	}
	wg.Wait()

	union, asked := make(map[int]bool), 0
	for i, cfg := range legs {
		if errs[i] != nil {
			t.Fatalf("leg %d: %v", i, errs[i])
		}
		want := runRecords(t, reference(cfg))
		if !sameRecords(got[i], want) {
			t.Fatalf("leg %d (seed %d, trials [%d,%d)) differs from its serial reference", i, cfg.Seed, cfg.Offset, cfg.Offset+cfg.Trials)
		}
		seen := distinctSamples(want)
		asked += len(seen)
		for s := range seen {
			union[s] = true
		}
	}
	computed, reused := reg.Counter(MetricCleanComputed).Value(), reg.Counter(MetricCleanReused).Value()
	if computed != int64(len(union)) || computed+reused != int64(asked) {
		t.Fatalf("computed %d reused %d: want each of the %d samples computed once and the other %d requests served from the cache", computed, reused, len(union), asked-len(union))
	}
}

// TestCleanCachePublishesTimedCosts: a caller that finds a sample another
// caller computed also finds that walk's timings among the cache's costs,
// whether it waited on the computation or came after it.
func TestCleanCachePublishesTimedCosts(t *testing.T) {
	cache := NewCleanCache(1 << 20)
	started, release := make(chan struct{}), make(chan struct{})
	walk := []int64{30, 10, 20}
	go func() {
		cache.get(context.Background(), 7, func() (cleanPrediction, []int64, error) {
			close(started)
			<-release
			return cleanPrediction{top1: 2}, walk, nil
		})
	}()
	<-started
	waited := make(chan []int64)
	go func() {
		cp, computed, err := cache.get(context.Background(), 7, func() (cleanPrediction, []int64, error) {
			t.Error("the waiter computed a sample another caller holds")
			return cleanPrediction{}, nil, nil
		})
		if err != nil || computed || cp.top1 != 2 {
			t.Errorf("waiter got %+v computed=%v err=%v, want the holder's prediction", cp, computed, err)
		}
		waited <- cache.nodeCosts()
	}()
	close(release)
	if got := <-waited; !slices.Equal(got, walk) {
		t.Fatalf("waiter found costs %v, want the published walk's %v", got, walk)
	}
	if _, computed, _ := cache.get(context.Background(), 7, nil); computed || !slices.Equal(cache.nodeCosts(), walk) {
		t.Fatalf("a later caller found costs %v (computed %v), want %v", cache.nodeCosts(), computed, walk)
	}
}

// gatedSource blocks every sample read until open closes, counting the
// reads that wait.
type gatedSource struct {
	*data.Classification
	open    chan struct{}
	waiting atomic.Int32
}

func (s *gatedSource) Sample(i int) (*tensor.Tensor, int) {
	select {
	case <-s.open:
	default:
		s.waiting.Add(1)
		<-s.open
	}
	return s.Classification.Sample(i)
}

// TestCleanCacheBorrowedSamplesPlanTimed: a Run every one of whose
// samples another Run on the same cache computed plans from timed costs,
// even when it finds them the moment the other Run publishes them. The
// first Run's two workers hold both samples' clean passes, blocked on
// their input, before the second Run starts.
func TestCleanCacheBorrowedSamplesPlanTimed(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	src := &gatedSource{Classification: ds, open: make(chan struct{})}
	cache := NewCleanCache(16 << 20)
	base := Config{
		Workers: 2, Trials: 24, Seed: 71, NewReplica: replicaFactory(t, model), Source: src,
		Eligible: eligible[:2], TrialBatch: 8, ArmTrial: neuronBitFlip, PrefixReuse: true, Clean: cache,
	}
	var wg sync.WaitGroup
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	errs := make([]error, 2)
	start := func(i int) {
		cfg := base
		cfg.Metrics = regs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = tryRecords(cfg)
		}()
	}
	start(0)
	for src.waiting.Load() < 2 {
		runtime.Gosched()
	}
	start(1)
	close(src.open)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if c := regs[1].Counter(MetricCleanComputed).Value(); c != 0 {
		t.Fatalf("the second Run computed %d clean passes, want every sample from the first", c)
	}
	for i, reg := range regs {
		if src := reg.Gauge(MetricSchedCostSource).Value(); src != costSourceTimed {
			t.Fatalf("run %d: cost source %v, want timed (%d)", i, src, costSourceTimed)
		}
	}
}

// faultySource panics on one sample while armed.
type faultySource struct {
	*data.Classification
	bad   int
	armed atomic.Bool
}

func (s *faultySource) Sample(i int) (*tensor.Tensor, int) {
	if i == s.bad && s.armed.Load() {
		panic("sample store unreadable")
	}
	return s.Classification.Sample(i)
}

// TestCleanCacheFailureIsNotCached: a clean pass that panics fails its
// Run and leaves no entry behind; the next Run on the cache computes the
// sample itself and matches the reference.
func TestCleanCacheFailureIsNotCached(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	src := &faultySource{Classification: ds}
	cfg := Config{
		Workers: 2, Trials: 60, Seed: 51, NewReplica: replicaFactory(t, model),
		Source: src, Eligible: eligible, TrialBatch: 8, ArmTrial: neuronBitFlip,
	}
	ref := runRecords(t, reference(cfg))
	src.bad = ref[len(ref)/2].Sample

	cfg.PrefixReuse, cfg.Clean = true, NewCleanCache(16<<20)
	src.armed.Store(true)
	if _, err := tryRecords(cfg); err == nil || !strings.Contains(err.Error(), "sample store unreadable") {
		t.Fatalf("Run over a panicking sample returned %v, want its clean-inference error", err)
	}
	if _, held := cfg.Clean.samples[src.bad]; held {
		t.Fatal("the failed clean pass left an entry in the cache")
	}
	src.armed.Store(false)
	cfg.Metrics = obs.NewRegistry()
	if got := runRecords(t, cfg); !sameRecords(got, ref) {
		t.Fatal("the Run after a failed clean pass differs from the reference")
	}
	if _, held := cfg.Clean.samples[src.bad]; !held {
		t.Fatal("the next Run did not compute the sample the failed one left out")
	}
	if c := cfg.Metrics.Counter(MetricCleanComputed).Value(); c < 1 {
		t.Fatalf("computed = %d, want at least the sample that failed before", c)
	}
}

// TestCleanCacheIgnoredWithoutReuse: the reference configuration shares
// nothing, whatever it is handed.
func TestCleanCacheIgnoredWithoutReuse(t *testing.T) {
	ds, model, eligible := trainedSetup(t)
	cache := NewCleanCache(16 << 20)
	cfg := Config{
		Workers: 2, Trials: 20, Seed: 61, NewReplica: replicaFactory(t, model),
		Source: ds, Eligible: eligible, ArmTrial: neuronBitFlip, Clean: cache,
	}
	runRecords(t, cfg)
	if len(cache.samples) != 0 || cache.store.Len() != 0 || cache.nodeCosts() != nil {
		t.Fatalf("a Run with PrefixReuse off touched the cache: %d samples, %d snapshots", len(cache.samples), cache.store.Len())
	}
}
