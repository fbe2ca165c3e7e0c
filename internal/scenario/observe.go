package scenario

import (
	"fmt"
	"math"

	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/tensor"
)

// ObserverEnv gives a scenario's observers what they need to replay
// and attribute trials: the engine seed and eligible-sample list (to
// re-derive each trial's stream), the sample source, and a replica
// factory for the mse observer's private injector.
type ObserverEnv struct {
	// Seed is the engine seed (CampaignEnv.CampaignSeed, not the user
	// seed) — trial streams derive from it.
	Seed int64
	// Offset is the first global trial index the observed run executes.
	Offset int
	// Eligible is the campaign's eligible-sample list; the replayed
	// sample draw must see the identical slice length.
	Eligible []int
	// Source provides input samples (mse observer only).
	Source campaign.SampleSource
	// NewReplica builds the mse observer's private injector (lazily, on
	// first observed record; nil is an error if the scenario asks for
	// mse).
	NewReplica func() (*core.Injector, error)
}

// Observers is a campaign.TrialSink folding a scenario's observer
// specs over the trial stream. Records may arrive in completion order;
// a contiguous frontier (the PR 7 pattern) buffers them so every fold
// runs in strict trial-index order — the Report is therefore a pure
// function of (Seed, Trials), independent of Workers and scheduling.
type Observers struct {
	c   *Compiled
	env ObserverEnv

	next    int
	pending map[int]campaign.TrialRecord

	sdc *sdcFold
	mse *mseFold
}

// NewObservers builds the scenario's observer sink, or (nil, nil) when
// the scenario declares no observers.
func (c *Compiled) NewObservers(env ObserverEnv) (*Observers, error) {
	if len(c.sc.Observers) == 0 {
		return nil, nil
	}
	if len(env.Eligible) == 0 {
		return nil, fmt.Errorf("scenario: observers need the campaign's eligible-sample list")
	}
	o := &Observers{c: c, env: env, next: env.Offset, pending: map[int]campaign.TrialRecord{}}
	for _, spec := range c.sc.Observers {
		switch spec.Kind {
		case ObsSDC:
			o.sdc = newSDCFold(c)
		case ObsMSE:
			if env.Source == nil || env.NewReplica == nil {
				return nil, fmt.Errorf("scenario: the mse observer needs a sample source and a replica factory")
			}
			o.mse = newMSEFold(c, spec.Limit)
		}
	}
	return o, nil
}

var _ campaign.TrialSink = (*Observers)(nil)

// Record implements campaign.TrialSink: buffer out-of-order records on
// the frontier, fold contiguous ones in index order.
func (o *Observers) Record(rec campaign.TrialRecord) error {
	o.pending[rec.Trial] = rec
	for {
		r, ok := o.pending[o.next]
		if !ok {
			return nil
		}
		delete(o.pending, o.next)
		o.next++
		if err := o.fold(r); err != nil {
			return err
		}
	}
}

func (o *Observers) fold(rec campaign.TrialRecord) error {
	if rec.Err != "" {
		return nil // skipped trials observed nothing
	}
	// Replay the trial's stream: sample draw first, then the selector's
	// site draws — the same prefix the engine consumed.
	rng := campaign.TrialStream(o.env.Seed, rec.Trial)
	rng.Intn(len(o.env.Eligible))
	sites := o.c.Draw(rng, rec.Trial)
	if o.sdc != nil {
		o.sdc.fold(rec, sites)
	}
	if o.mse != nil {
		if err := o.mse.fold(o, rec); err != nil {
			return fmt.Errorf("scenario: mse observer, trial %d: %w", rec.Trial, err)
		}
	}
	return nil
}

// Report summarizes the folds. Call after the campaign finishes.
func (o *Observers) Report() Report {
	var rep Report
	if o.sdc != nil {
		rep.SDC = o.sdc.report(o.c)
	}
	if o.mse != nil {
		rep.MSE = o.mse.report(o.c)
	}
	return rep
}

// Report is the per-layer observer output. Float fields carry their
// IEEE-754 bit patterns alongside, so golden fixtures pin byte-exact
// results without decimal round-tripping.
type Report struct {
	SDC []LayerSDC `json:"sdc,omitempty"`
	MSE []LayerMSE `json:"mse,omitempty"`
}

// LayerSDC is one enabled layer's SDC tally over the trials whose
// fault(s) hit it.
type LayerSDC struct {
	Layer  int     `json:"layer"`
	Path   string  `json:"path"`
	Trials int64   `json:"trials"`
	SDC    int64   `json:"sdc"`
	Rate   float64 `json:"rate"`
}

// LayerMSE is one enabled layer's mean squared activation error vs the
// clean run, averaged over the observed trials.
type LayerMSE struct {
	Layer   int     `json:"layer"`
	Path    string  `json:"path"`
	Trials  int64   `json:"trials"`
	MSE     float64 `json:"mse"`
	MSEBits uint64  `json:"mse_bits"`
}

type sdcFold struct {
	trials []int64
	sdc    []int64
}

func newSDCFold(c *Compiled) *sdcFold {
	return &sdcFold{trials: make([]int64, len(c.layers)), sdc: make([]int64, len(c.layers))}
}

func (f *sdcFold) fold(rec campaign.TrialRecord, sites []Site) {
	// Count each layer once per trial, however many of its sites the
	// trial armed.
	var touched [8]int
	seen := touched[:0]
	for _, s := range sites {
		dup := false
		for _, l := range seen {
			if l == s.Layer {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen = append(seen, s.Layer)
		f.trials[s.Layer]++
		if rec.Outcome.Top1Changed {
			f.sdc[s.Layer]++
		}
	}
}

func (f *sdcFold) report(c *Compiled) []LayerSDC {
	out := make([]LayerSDC, 0, len(c.enabled))
	for _, li := range c.enabled {
		r := LayerSDC{Layer: li, Path: c.layers[li].Path, Trials: f.trials[li], SDC: f.sdc[li]}
		if r.Trials > 0 {
			r.Rate = float64(r.SDC) / float64(r.Trials)
		}
		out = append(out, r)
	}
	return out
}

type mseFold struct {
	limit int
	seen  int

	inj   *core.Injector
	clean map[int][][]float32 // sample index → per-layer clean activations

	sumSq  []float64
	trials []int64
}

func newMSEFold(c *Compiled, limit int) *mseFold {
	return &mseFold{
		limit:  limit,
		clean:  map[int][][]float32{},
		sumSq:  make([]float64, len(c.layers)),
		trials: make([]int64, len(c.layers)),
	}
}

// cleanCacheCap bounds the clean-activation cache. Eviction only costs
// a recompute — the recomputed activations are bit-identical — so the
// fold stays deterministic regardless of eviction choices.
const cleanCacheCap = 8

func (f *mseFold) fold(o *Observers, rec campaign.TrialRecord) error {
	if f.limit > 0 && f.seen >= f.limit {
		return nil
	}
	f.seen++
	if f.inj == nil {
		inj, err := o.env.NewReplica()
		if err != nil {
			return fmt.Errorf("building observer replica: %w", err)
		}
		f.inj = inj
	}
	x, _ := o.env.Source.Sample(rec.Sample)
	if shape := x.Shape(); len(shape) == 3 {
		// Dataset samples are [C,H,W]; forwards take [N,C,H,W], exactly
		// as the engine reshapes before its own inference.
		x = x.Reshape(1, shape[0], shape[1], shape[2])
	}

	cleanActs, ok := f.clean[rec.Sample]
	if !ok {
		f.inj.Reset()
		acts := make([][]float32, len(o.c.layers))
		if _, err := f.inj.ObserveForward(x, func(l int, out *tensor.Tensor) {
			acts[l] = append([]float32(nil), out.Data()...)
		}); err != nil {
			return fmt.Errorf("clean pass: %w", err)
		}
		if len(f.clean) >= cleanCacheCap {
			for k := range f.clean {
				delete(f.clean, k)
				break
			}
		}
		f.clean[rec.Sample] = acts
		cleanActs = acts
	}

	// Re-arm the trial exactly as the engine did: fresh stream, sample
	// draw, Reset, SetRand, arm — so perturb-time draws (random bit
	// positions, random values) reproduce bit-for-bit.
	rng := campaign.TrialStream(o.env.Seed, rec.Trial)
	rng.Intn(len(o.env.Eligible))
	f.inj.Reset()
	f.inj.SetRand(rng)
	if err := o.c.ArmTrial(f.inj, rng, rec.Trial); err != nil {
		return fmt.Errorf("re-arming: %w", err)
	}
	touched := make([]bool, len(o.c.layers))
	if _, err := f.inj.ObserveForward(x, func(l int, out *tensor.Tensor) {
		data := out.Data()
		ref := cleanActs[l]
		if len(ref) != len(data) {
			return // geometry mismatch; surfaced below via touched
		}
		var sum float64
		for i, v := range data {
			d := float64(v) - float64(ref[i])
			sum += d * d
		}
		f.sumSq[l] += sum / float64(len(data))
		f.trials[l]++
		touched[l] = true
	}); err != nil {
		f.inj.Reset()
		return fmt.Errorf("injected pass: %w", err)
	}
	f.inj.Reset()
	for l := range touched {
		if !touched[l] {
			return fmt.Errorf("layer %d activations did not match the clean geometry", l)
		}
	}
	return nil
}

func (f *mseFold) report(c *Compiled) []LayerMSE {
	out := make([]LayerMSE, 0, len(c.enabled))
	for _, li := range c.enabled {
		r := LayerMSE{Layer: li, Path: c.layers[li].Path, Trials: f.trials[li]}
		if r.Trials > 0 {
			r.MSE = f.sumSq[li] / float64(r.Trials)
		}
		// A NaN's payload is whichever NaN the kernels and this fold's
		// float64 chain kept, which the tensor level does not pin
		// (DESIGN §10); the persisted bits carry one canonical NaN.
		if math.IsNaN(r.MSE) {
			r.MSE = math.NaN()
		}
		r.MSEBits = math.Float64bits(r.MSE)
		out = append(out, r)
	}
	return out
}
