package sched

// CostTable prices the chain geometry a campaign schedules over: entry i
// is the forward cost of chain node i, in any consistent unit (the
// engine calibrates nanoseconds from timed clean walks; the scheduler
// only ever compares sums over the same table, so the unit cancels). The table is immutable after
// construction and stores prefix sums, so pricing "resume at cut c" is
// O(1).
type CostTable struct {
	// prefix[c] is the summed cost of nodes [0, c); len(prefix) is the
	// chain length plus one.
	prefix []float64
}

// NewCostTable builds a table from per-node costs. Negative entries are
// clamped to zero — a cost table must be monotone for prefix/suffix
// pricing to make sense.
func NewCostTable(nodeCosts []float64) *CostTable {
	prefix := make([]float64, len(nodeCosts)+1)
	for i, c := range nodeCosts {
		if c < 0 {
			c = 0
		}
		prefix[i+1] = prefix[i] + c
	}
	return &CostTable{prefix: prefix}
}

// NewCostTableNS builds a table from per-node nanosecond costs, the form
// core.PrefixRunner reports them in.
func NewCostTableNS(nodeNS []int64) *CostTable {
	costs := make([]float64, len(nodeNS))
	for i, ns := range nodeNS {
		costs[i] = float64(ns)
	}
	return NewCostTable(costs)
}

// Len returns the number of chain nodes the table covers.
func (t *CostTable) Len() int { return len(t.prefix) - 1 }

func (t *CostTable) clamp(c int) int {
	if c < 0 {
		return 0
	}
	if c > t.Len() {
		return t.Len()
	}
	return c
}

// Prefix returns the cost of running chain nodes [0, c) — what a trial
// pays to reach cut c from the model input. Cuts outside [0, Len] clamp.
func (t *CostTable) Prefix(c int) float64 { return t.prefix[t.clamp(c)] }

// Suffix returns the cost of running chain nodes [c, Len) — what a trial
// pays after resuming at cut c. Cuts outside [0, Len] clamp.
func (t *CostTable) Suffix(c int) float64 { return t.Total() - t.Prefix(c) }

// Total returns the full-forward cost, the sum of every node.
func (t *CostTable) Total() float64 { return t.prefix[len(t.prefix)-1] }

// Usable reports whether the table can actually rank plans: non-nil,
// covering at least one node, with nonzero total cost. Build falls back
// to unmodeled chunking when the table is not usable.
func (t *CostTable) Usable() bool {
	return t != nil && t.Len() > 0 && t.Total() > 0
}
