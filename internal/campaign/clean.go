package campaign

import (
	"context"
	"sync"

	"gofi/internal/tensor"
)

// prefixStoreBudget is what each worker adds to the budget of a clean
// cache's checkpoint store. Boundary activations for 32×32-class models
// run tens to hundreds of KiB, so a worker's share holds a few hundred
// (sample, cut) snapshots; LRU eviction keeps memory flat on larger
// sweeps.
const prefixStoreBudget int64 = 64 << 20

// StoreBudget is the checkpoint-store budget rule: prefixStoreBudget per
// worker. A fixture's cache is sized from the worker count its campaigns
// canonically run at; a Run handed no cache sizes a private one from its
// own crew.
func StoreBudget(workers int) int64 { return prefixStoreBudget * int64(workers) }

// CleanCache owns a fixture's clean pass: each sample's clean prediction,
// the checkpoint store the clean walks warm, and the per-node cost
// minimums they time. All three are pure functions of (fixture, sample) —
// a clean activation and a clean prediction are the same bit pattern on
// every replica of one model — so one cache serves every Run over that
// fixture, concurrent ones included, and a sample's clean pass is
// computed once per cache instead of once per Run.
//
// Every Run handed one cache must build replicas of one model and read
// one Source; the cache cannot see a violation. Run uses it only under
// Config.PrefixReuse, and a weight-armed trial on replicas that share
// weight storage never reads or writes its store (see executor.forward).
type CleanCache struct {
	// store is nil when the clean walks checkpoint nothing: the private
	// table of a Run with PrefixReuse off.
	store *tensor.CheckpointStore

	mu      sync.Mutex
	samples map[int]*cleanEntry
	costs   []int64 // per-chain-node minimums over every timed clean walk
}

// cleanEntry is one sample's slot. done closes when its computation
// settles; ok says whether cp holds the result.
type cleanEntry struct {
	done chan struct{}
	cp   cleanPrediction
	ok   bool
}

// NewCleanCache returns an empty cache whose checkpoint store holds at
// most budgetBytes (see StoreBudget for the rule callers size it by).
func NewCleanCache(budgetBytes int64) *CleanCache {
	return newCleanCache(tensor.NewCheckpointStore(budgetBytes))
}

func newCleanCache(store *tensor.CheckpointStore) *CleanCache {
	return &CleanCache{store: store, samples: make(map[int]*cleanEntry)}
}

// cleanCompute is one sample's clean pass: its prediction and the
// per-chain-node nanoseconds of the walk that produced it (nil when the
// walk was not timed).
type cleanCompute func() (cp cleanPrediction, nodeNS []int64, err error)

// get returns sample's clean prediction, running compute when the table
// lacks it; computed reports whether this call did. Callers asking for a
// sample another is computing wait for that one computation. A compute
// that fails or panics leaves no entry behind: its waiters, and any later
// caller, compute the sample themselves.
func (c *CleanCache) get(ctx context.Context, sample int, compute cleanCompute) (cp cleanPrediction, computed bool, err error) {
	for {
		c.mu.Lock()
		e, found := c.samples[sample]
		if !found {
			e = &cleanEntry{done: make(chan struct{})}
			c.samples[sample] = e
		}
		c.mu.Unlock()
		if !found {
			cp, err = c.fill(sample, e, compute)
			return cp, true, err
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return cp, false, ctx.Err()
		}
		if e.ok {
			return e.cp, false, nil
		}
	}
}

// fill runs compute for the entry this caller just claimed. The walk's
// timings join the cache's cost minimums before the entry is published,
// so whoever finds a sample here, this Run or a concurrent one, also
// finds the timed costs of its walk.
func (c *CleanCache) fill(sample int, e *cleanEntry, compute cleanCompute) (cleanPrediction, error) {
	defer close(e.done)
	defer func() {
		if !e.ok {
			c.mu.Lock()
			delete(c.samples, sample)
			c.mu.Unlock()
		}
	}()
	cp, nodeNS, err := compute()
	if err != nil {
		return cp, err
	}
	c.mu.Lock()
	c.costs = mergeNodeCosts(c.costs, nodeNS)
	c.mu.Unlock()
	e.cp, e.ok = cp, true
	return cp, nil
}

// nodeCosts returns a copy of the per-node minimums (nil: nothing timed).
func (c *CleanCache) nodeCosts() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.costs...)
}

// mergeNodeCosts folds one timed walk into per-node minimums (the minimum
// across walks is the robust per-node estimate; first executions pay
// allocation and cache warmup).
func mergeNodeCosts(acc, nodeNS []int64) []int64 {
	if len(nodeNS) == 0 {
		return acc
	}
	if len(acc) != len(nodeNS) {
		return append([]int64(nil), nodeNS...)
	}
	for i, v := range nodeNS {
		if v > 0 && (acc[i] == 0 || v < acc[i]) {
			acc[i] = v
		}
	}
	return acc
}
