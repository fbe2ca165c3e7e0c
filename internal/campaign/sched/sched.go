// Package sched plans how a fault-injection campaign executes its trial
// list: which trials run batched together in one tiled forward pass,
// which run alone as width-1 entries, and at which clean-prefix cut
// each pack resumes. The two execution tricks the engine owns — batched
// lane packing and clean-prefix checkpoint reuse — interact badly when
// combined naively: a pack must resume at its *shallowest* member's cut,
// so with a warmed checkpoint store (where every sequential trial gets a
// direct hit at its own deepest cut) packing dilutes the reuse savings
// and loses outright. The scheduler unifies the two behind a cost model:
// it prices every candidate grouping against per-chain-node forward
// costs (CostTable) and emits the cheaper plan.
//
// A plan is a pure function of (trials, Config) — deterministic sorting
// and grouping, no map iteration, no randomness — so two runs of the
// same campaign at any worker count schedule identically. The plan only
// decides *how* trials execute, never *what* they compute: per-trial RNG
// streams and lane isolation keep every trial's outcome independent of
// its placement, which is what lets the engine keep its byte-identical
// aggregate contract at every schedule mode.
package sched

import (
	"fmt"
	"math"
	"sort"
)

// Mode selects the planning strategy.
type Mode int

const (
	// ModeAuto prices packing against sequential execution with the
	// cost model and picks per trial group — the default. Without a
	// usable cost table it degrades to ModePack's grouping.
	ModeAuto Mode = iota
	// ModePack chunks each sample's packable trials into K-sized packs
	// unconditionally.
	ModePack
	// ModeSeq runs every trial alone, as a width-1 entry.
	ModeSeq
)

// String names the mode in test labels and diagnostics.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModePack:
		return "pack"
	case ModeSeq:
		return "seq"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// DefaultLaneOverhead is the per-sample cost multiplier of running a
// suffix K-wide instead of alone. Measured on the DenseNet campaign
// bench (BENCH_batch.json): the batch-8 suffix costs about 7% more per
// sample than batch-1 — tiling is cheap but wider GEMMs and pools do
// not scale perfectly on small spatial extents.
const DefaultLaneOverhead = 0.07

// Trial describes one pending trial to the scheduler, as discovered by
// the engine's probe pass.
type Trial struct {
	// Trial is the campaign trial index.
	Trial int
	// Sample is the input sample the trial draws (trials in one pack
	// share it, so one tiled input serves every lane).
	Sample int
	// Cut is the trial's clean-prefix chain cut (0 = no reusable
	// prefix).
	Cut int
	// Packable is false for trials that must run alone: weight faults,
	// explicit multi-batch sites, arm errors.
	Packable bool
}

// Entry is one unit of scheduled work: up to K trials sharing a sample,
// resumed together from the entry's chain cut. Seq marks a singleton
// that cannot share a forward (the engine counts those as fallbacks);
// non-Seq singletons were free to pack and simply priced cheaper alone.
// Either way the engine's one executor runs the entry — width 1 is just
// the narrowest case.
type Entry struct {
	Trials []int
	Sample int
	// Cut is the deepest chain cut sound for every trial in the entry:
	// the minimum of the members' cuts.
	Cut int
	Seq bool
}

// Plan is the scheduler's output: the entry list plus bookkeeping for
// metrics. Every input trial appears in exactly one entry.
type Plan struct {
	Entries []Entry
	// Packed counts trials placed in multi-trial entries, Solo counts
	// packable trials the plan chose to run alone, and Unpackable
	// counts trials that cannot share a forward (Seq entries).
	Packed, Solo, Unpackable int
	// Modeled reports whether the cost model ranked the plan (ModeAuto
	// with a usable CostTable) or unconditional chunking built it.
	Modeled bool
}

// Config parameterizes Build.
type Config struct {
	// K is the lane width: the maximum trials per entry. K < 2
	// schedules everything sequentially.
	K int
	// Mode selects the strategy; the zero value is ModeAuto.
	Mode Mode
	// Reuse reports whether clean-prefix checkpoint reuse is active.
	// Under reuse each sequential trial resumes from a warmed
	// checkpoint at its own cut, which changes the economics of
	// packing completely.
	Reuse bool
	// Costs prices chain nodes for ModeAuto; nil or unusable tables
	// degrade ModeAuto to ModePack's grouping.
	Costs *CostTable
	// LaneOverhead is the fractional per-sample cost of running a
	// suffix batched instead of alone. Zero selects
	// DefaultLaneOverhead; negative values mean "free".
	LaneOverhead float64
}

// Build schedules the trials. Unpackable trials (and every trial when
// K < 2 or Mode is ModeSeq) become sequential singletons, appended after
// the packs in spec order. Packable trials group by sample in first-seen
// order and sort by cut (deepest first, trial index as the tiebreak);
// ModePack chunks each group into K-sized entries, ModeAuto partitions
// it with the cost model (see partition). The result is deterministic in
// (trials, cfg).
func Build(trials []Trial, cfg Config) Plan {
	k := cfg.K
	if k < 1 {
		k = 1
	}
	var entries []Entry
	var order []int // distinct samples of packable trials, first-seen order
	group := make(map[int][]Trial)
	var seq []Trial
	for _, t := range trials {
		if !t.Packable || k < 2 || cfg.Mode == ModeSeq {
			seq = append(seq, t)
			continue
		}
		if _, ok := group[t.Sample]; !ok {
			order = append(order, t.Sample)
		}
		group[t.Sample] = append(group[t.Sample], t)
	}
	modeled := cfg.Mode == ModeAuto && cfg.Costs.Usable()
	for _, sample := range order {
		g := group[sample]
		sort.Slice(g, func(i, j int) bool {
			if g[i].Cut != g[j].Cut {
				return g[i].Cut > g[j].Cut
			}
			return g[i].Trial < g[j].Trial
		})
		if modeled {
			entries = append(entries, partition(g, sample, k, cfg)...)
			continue
		}
		for start := 0; start < len(g); start += k {
			end := start + k
			if end > len(g) {
				end = len(g)
			}
			entries = append(entries, block(g, start, end, sample))
		}
	}
	for _, t := range seq {
		entries = append(entries, Entry{Trials: []int{t.Trial}, Sample: t.Sample, Cut: 0, Seq: true})
	}
	plan := Plan{Entries: entries, Modeled: modeled}
	for _, e := range plan.Entries {
		switch {
		case e.Seq:
			plan.Unpackable += len(e.Trials)
		case len(e.Trials) > 1:
			plan.Packed += len(e.Trials)
		default:
			plan.Solo++
		}
	}
	return plan
}

// block builds the entry for g[start:end] of a cut-desc-sorted group:
// the cut is the last (shallowest) member's.
func block(g []Trial, start, end, sample int) Entry {
	e := Entry{Sample: sample, Cut: g[end-1].Cut, Trials: make([]int, 0, end-start)}
	for _, t := range g[start:end] {
		e.Trials = append(e.Trials, t.Trial)
	}
	return e
}

// partition splits one sample's cut-desc-sorted trials into the
// cheapest sequence of blocks of at most k under the cost model, by
// dynamic programming over contiguous blocks of the sorted order (an
// optimal partition never benefits from swapping a deeper-cut trial out
// of a block for a shallower one — that only lowers the block's shared
// cut). Per block:
//
//	sequential singleton, reuse on:  Suffix(cut)          (warmed-store hit at own cut)
//	sequential singleton, reuse off: Total()              (full forward)
//	pack of s trials, reuse on:      s·Suffix(cmin)·(1+ovh)
//	pack of s trials, reuse off:     Prefix(cmin) + s·Suffix(cmin)·(1+ovh)
//
// where cmin is the block's shallowest cut. Under reuse a pack's
// boundary is itself a warmed-store hit, so the prefix term vanishes —
// which is exactly why packing loses there: s·Suffix(cmin) already
// exceeds the members' own Suffix(cᵢ) sums whenever cuts differ, and the
// lane overhead breaks the tie when they don't. With reuse off the
// shared prefix is computed once instead of s times, so cut-similar
// packs win. Deep outliers price out of any pack that would drag cmin
// down and run alone. Ties resolve deterministically (strict improvement
// over ascending split points).
func partition(g []Trial, sample, k int, cfg Config) []Entry {
	ovh := cfg.LaneOverhead
	if ovh == 0 {
		ovh = DefaultLaneOverhead
	} else if ovh < 0 {
		ovh = 0
	}
	costs := cfg.Costs
	blockCost := func(j, i int) float64 {
		if i-j == 1 {
			if cfg.Reuse {
				return costs.Suffix(g[j].Cut)
			}
			return costs.Total()
		}
		cmin := g[i-1].Cut
		prefix := costs.Prefix(cmin)
		if cfg.Reuse {
			prefix = 0
		}
		return prefix + float64(i-j)*costs.Suffix(cmin)*(1+ovh)
	}
	n := len(g)
	dp := make([]float64, n+1)
	choice := make([]int, n+1)
	for i := 1; i <= n; i++ {
		dp[i] = math.Inf(1)
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			if c := dp[j] + blockCost(j, i); c < dp[i] {
				dp[i], choice[i] = c, j
			}
		}
	}
	var blocks []Entry
	for i := n; i > 0; i = choice[i] {
		blocks = append(blocks, block(g, choice[i], i, sample))
	}
	for l, r := 0, len(blocks)-1; l < r; l, r = l+1, r-1 {
		blocks[l], blocks[r] = blocks[r], blocks[l]
	}
	return blocks
}
