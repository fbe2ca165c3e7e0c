package experiments

import (
	"context"
	"testing"
)

// The paper's two resilience claims that run on pre-built fixtures,
// stated as intervals at test scale (ROADMAP 9(b)). Both are
// non-inferiority checks: the treated model's Wilson 99% lower bound must
// not lie above the untreated model's upper bound, so a test fails only
// if the measurement resolves the direction *opposite* to the paper's.
//
// What this scale resolves, at the CLIs' default seed (1, not tuned):
// Fig. 6 at 3000 trials per model measures the IBP net at about a third
// of the baseline's rate (12 vs 37 misclassifications), the paper's
// direction, with 99% intervals that still touch ([0.19, 0.83]% vs
// [0.81, 1.87]%) — so the direction is logged, not required. Table I at
// 2000 trials per twin does not resolve a direction at all (37 vs 35):
// the twins differ by far less than the ±0.8-point interval, and the
// paper's "more resilient" stays a claim this scale cannot test.

func TestClaimFig6IBPNotMoreVulnerable(t *testing.T) {
	skipIfShort(t)
	res, err := RunFig6(context.Background(), Fig6Config{
		Alphas: []float64{0.1}, Epsilons: []float32{0.125}, Trials: 3000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	t.Logf("IBP %v vs baseline %v, relative %s (clean accuracy %.2f vs %.2f)", r.IBP, r.Base, r.RelativeText(), r.CleanAcc, res.BaselineAcc)
	if r.IBP.Trials != 3000 || r.Base.Trials != 3000 || r.Base.CIHi <= r.Base.CILo {
		t.Fatalf("degenerate measurement: %+v", r)
	}
	if r.IBP.CILo > r.Base.CIHi {
		t.Fatalf("IBP-trained net resolved MORE vulnerable than the baseline: %v vs %v", r.IBP, r.Base)
	}
}

func TestClaimTable1FITrainedNotLessResilient(t *testing.T) {
	skipIfShort(t)
	res, err := RunTable1(context.Background(), Table1Config{
		Classes: 4, InSize: 16, Epochs: 2, TrainSize: 128, EvalTrials: 2000, Noise: 0.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FI-trained %v vs baseline %v: %s", res.FI, res.Baseline, res.Verdict())
	if res.FI.Trials != 2000 || res.Baseline.Trials != 2000 || res.Baseline.CIHi <= res.Baseline.CILo {
		t.Fatalf("degenerate measurement: %+v", res)
	}
	if res.FI.CILo > res.Baseline.CIHi {
		t.Fatalf("injection-trained twin resolved LESS resilient than the baseline: %v vs %v", res.FI, res.Baseline)
	}
}
