package stats

import "fmt"

// DefaultMinTrials is the floor below which no stopping rule fires: with
// a handful of observations every binomial interval is accidentally
// tight at k == 0, and stopping there would report "0% SDC ± 0.5%" off
// five trials. The Gräfe et al. extension applies the same guard.
const DefaultMinTrials = 100

// DefaultConfidence is the stopping rule's confidence level when the
// caller leaves it zero.
const DefaultConfidence = 0.95

// StopRule is a sequential early-stopping criterion: halt once the
// SDC-rate confidence interval's half-width is at most HalfWidth at the
// Confidence level, but never before MinTrials observed trials. The zero
// value means no early stopping, so configurations carry a StopRule by
// value and the budget alone ends the run when it is left unset.
type StopRule struct {
	// HalfWidth is the target CI half-width in rate units (0.005 = ±0.5
	// percentage points); 0 turns the rule off.
	HalfWidth float64
	// Confidence is the interval's two-sided level in (0, 1); 0 means
	// DefaultConfidence.
	Confidence float64
	// MinTrials is the minimum observed (non-skipped) trials before the
	// rule may fire; 0 means DefaultMinTrials.
	MinTrials int
	// Method selects the interval construction (zero value: Wilson).
	Method Method
}

// canon fills defaults.
func (r StopRule) canon() StopRule {
	if r.Confidence <= 0 || r.Confidence >= 1 {
		r.Confidence = DefaultConfidence
	}
	if r.MinTrials <= 0 {
		r.MinTrials = DefaultMinTrials
	}
	return r
}

// On reports whether the rule asks for early stopping at all.
func (r StopRule) On() bool { return r.HalfWidth > 0 }

// Validate rejects rules that can never fire sensibly. A rule that is
// off (HalfWidth 0) is valid; its other fields are still checked, so a
// bad confidence is reported even before a half-width is chosen.
func (r StopRule) Validate() error {
	if r.HalfWidth < 0 {
		return fmt.Errorf("stats: stop half-width must not be negative, got %g", r.HalfWidth)
	}
	if r.HalfWidth >= 0.5 {
		return fmt.Errorf("stats: stop half-width %g means an interval wider than [0,1] would satisfy it", r.HalfWidth)
	}
	if r.Confidence != 0 && (r.Confidence <= 0 || r.Confidence >= 1) {
		return fmt.Errorf("stats: stop confidence must be in (0,1), got %g", r.Confidence)
	}
	if r.MinTrials < 0 {
		return fmt.Errorf("stats: negative stop min-trials %d", r.MinTrials)
	}
	return nil
}

// met reports whether the estimator satisfies the (canonicalized) rule.
func (r StopRule) met(e *Estimator) bool {
	if e.N < r.MinTrials {
		return false
	}
	return e.CI(r.Confidence).HalfWidth() <= r.HalfWidth
}

// Watcher is the engine-facing fold: the campaign engine feeds every
// finished trial in strict trial-index order and halts the leg as soon
// as ShouldStop reports true. Implementations must be pure functions of
// the observed sequence — no clocks, no randomness — so the stop index
// is deterministic in (Seed, Trials).
type Watcher interface {
	// Observe folds trial t. sdc is the trial's silent-data-corruption
	// verdict (ignored when skipped is true).
	Observe(trial int, sdc, skipped bool)
	// ShouldStop reports whether the rule has fired. Once true it stays
	// true (the fold latches), so the engine may poll it after every
	// Observe.
	ShouldStop() bool
	// Interval returns the current point estimate and confidence bounds.
	Interval() (rate, lo, hi float64)
}

// Sequential is the plain (unstratified) sequential watcher: one
// Estimator over the whole stream plus a StopRule.
type Sequential struct {
	rule    StopRule
	est     Estimator
	stopped bool
	stopAt  int
}

// NewSequential builds a watcher for the rule (defaults filled).
func NewSequential(rule StopRule) *Sequential {
	rule = rule.canon()
	return &Sequential{rule: rule, est: Estimator{Method: rule.Method}, stopAt: -1}
}

// Observe implements Watcher.
func (s *Sequential) Observe(trial int, sdc, skipped bool) {
	if s.stopped {
		return
	}
	if skipped {
		s.est.Skip()
	} else {
		s.est.Observe(sdc)
	}
	if s.rule.met(&s.est) {
		s.stopped = true
		s.stopAt = trial
	}
}

// ShouldStop implements Watcher.
func (s *Sequential) ShouldStop() bool { return s.stopped }

// StopTrial returns the trial index the rule fired on, or -1.
func (s *Sequential) StopTrial() int { return s.stopAt }

// Interval implements Watcher.
func (s *Sequential) Interval() (rate, lo, hi float64) {
	ci := s.est.CI(s.rule.Confidence)
	return s.est.Rate(), ci.Lo, ci.Hi
}

// Estimate returns a copy of the underlying estimator.
func (s *Sequential) Estimate() Estimator { return s.est }

// Rule returns the canonicalized rule the watcher runs.
func (s *Sequential) Rule() StopRule { return s.rule }

// SequentialState is the serializable snapshot of a Sequential watcher.
// The watcher is a pure left fold over the index-ordered trial stream,
// so its entire state is these four fields: restoring a snapshot taken
// after trial k and folding trials k+1.. onward is indistinguishable —
// stop index, estimate and interval alike — from one uninterrupted fold.
// That property is what makes campaign checkpoints exact: gofi-serve
// persists this state alongside the partial aggregate and resumes a
// killed campaign without re-observing a single trial.
type SequentialState struct {
	Rule    StopRule  `json:"rule"`
	Est     Estimator `json:"estimator"`
	Stopped bool      `json:"stopped"`
	StopAt  int       `json:"stop_at"`
}

// State snapshots the watcher. The embedded rule is the canonicalized
// one, so NewSequentialFromState restores it verbatim.
func (s *Sequential) State() SequentialState {
	return SequentialState{Rule: s.rule, Est: s.est, Stopped: s.stopped, StopAt: s.stopAt}
}

// NewSequentialFromState rebuilds a watcher from a State snapshot.
func NewSequentialFromState(st SequentialState) *Sequential {
	return &Sequential{rule: st.Rule.canon(), est: st.Est, stopped: st.Stopped, stopAt: st.StopAt}
}
