package sched

import (
	"reflect"
	"testing"
)

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{ModeAuto: "auto", ModePack: "pack", ModeSeq: "seq", Mode(7): "Mode(7)"} {
		if got := m.String(); got != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
	if Mode(0) != ModeAuto {
		t.Fatal("the zero Mode must be ModeAuto")
	}
}

func TestCostTable(t *testing.T) {
	ct := NewCostTable([]float64{3, -2, 5, 2})
	if ct.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ct.Len())
	}
	if ct.Total() != 10 { // the -2 clamps to 0
		t.Fatalf("Total = %v, want 10", ct.Total())
	}
	if got := ct.Prefix(2); got != 3 {
		t.Fatalf("Prefix(2) = %v, want 3", got)
	}
	if got := ct.Suffix(2); got != 7 {
		t.Fatalf("Suffix(2) = %v, want 7", got)
	}
	if ct.Prefix(-1) != 0 || ct.Prefix(99) != 10 || ct.Suffix(99) != 0 {
		t.Fatal("out-of-range cuts must clamp")
	}
	if !ct.Usable() {
		t.Fatal("a nonzero table is usable")
	}
	var nilTable *CostTable
	if nilTable.Usable() || NewCostTable(nil).Usable() || NewCostTable([]float64{0, 0}).Usable() {
		t.Fatal("nil, empty, and all-zero tables are not usable")
	}
	if got := NewCostTableNS([]int64{5, 7}).Total(); got != 12 {
		t.Fatalf("NewCostTableNS total = %v, want 12", got)
	}
}

// packerSpecs is the fixture the legacy packer test pinned: mixed
// samples, one unpackable trial, cuts out of order.
func packerSpecs() []Trial {
	return []Trial{
		{Trial: 0, Sample: 1, Cut: 2, Packable: true},
		{Trial: 1, Sample: 1, Cut: 4, Packable: true},
		{Trial: 2, Sample: 2, Cut: 1, Packable: true},
		{Trial: 3, Sample: 1, Cut: 3, Packable: false},
		{Trial: 4, Sample: 1, Cut: 4, Packable: true},
		{Trial: 5, Sample: 2, Cut: 3, Packable: true},
	}
}

func TestBuildPackMode(t *testing.T) {
	plan := Build(packerSpecs(), Config{K: 2, Mode: ModePack})
	want := []Entry{
		{Trials: []int{1, 4}, Sample: 1, Cut: 4},
		{Trials: []int{0}, Sample: 1, Cut: 2},
		{Trials: []int{5, 2}, Sample: 2, Cut: 1},
		{Trials: []int{3}, Sample: 1, Cut: 0, Seq: true},
	}
	if !reflect.DeepEqual(plan.Entries, want) {
		t.Fatalf("ModePack entries = %+v, want %+v", plan.Entries, want)
	}
	if plan.Modeled || plan.Packed != 4 || plan.Solo != 1 || plan.Unpackable != 1 {
		t.Fatalf("plan stats = %+v", plan)
	}
}

func TestBuildSequentialDegenerations(t *testing.T) {
	// K < 2, ModeSeq, and all-unpackable each yield only sequential
	// singletons in spec order.
	cfgs := map[string]Config{
		"k1":  {K: 1, Mode: ModeAuto},
		"k0":  {K: 0, Mode: ModePack},
		"seq": {K: 8, Mode: ModeSeq},
	}
	for name, cfg := range cfgs {
		plan := Build(packerSpecs(), cfg)
		if len(plan.Entries) != 6 {
			t.Fatalf("%s: %d entries, want 6", name, len(plan.Entries))
		}
		for i, e := range plan.Entries {
			if !e.Seq || len(e.Trials) != 1 || e.Trials[0] != i || e.Cut != 0 {
				t.Fatalf("%s: entry %d = %+v, want Seq singleton of trial %d", name, i, e, i)
			}
		}
		if plan.Unpackable != 6 || plan.Packed != 0 || plan.Solo != 0 {
			t.Fatalf("%s: stats = %+v", name, plan)
		}
	}
	unpackable := []Trial{
		{Trial: 0, Sample: 0, Cut: 5, Packable: false},
		{Trial: 1, Sample: 1, Cut: 5, Packable: false},
	}
	plan := Build(unpackable, Config{K: 8, Mode: ModeAuto})
	if len(plan.Entries) != 2 || !plan.Entries[0].Seq || !plan.Entries[1].Seq {
		t.Fatalf("all-unpackable plan = %+v", plan.Entries)
	}
	if plan.Unpackable != 2 {
		t.Fatalf("all-unpackable stats = %+v", plan)
	}
}

func TestBuildEmpty(t *testing.T) {
	if plan := Build(nil, Config{K: 8}); len(plan.Entries) != 0 {
		t.Fatalf("empty plan = %+v", plan.Entries)
	}
}

// uniformCosts is a 10-node chain costing 1 per node.
func uniformCosts() *CostTable {
	return NewCostTable([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
}

// TestBuildAutoReuseOn: with a warmed checkpoint store every sequential
// trial resumes at its own cut, so the model must refuse to pack — a
// pack resumes everyone at the shallowest member's cut and pays lane
// overhead on top.
func TestBuildAutoReuseOn(t *testing.T) {
	trials := []Trial{
		{Trial: 0, Sample: 0, Cut: 8, Packable: true},
		{Trial: 1, Sample: 0, Cut: 5, Packable: true},
		{Trial: 2, Sample: 0, Cut: 5, Packable: true},
		{Trial: 3, Sample: 0, Cut: 2, Packable: true},
	}
	plan := Build(trials, Config{K: 4, Mode: ModeAuto, Reuse: true, Costs: uniformCosts()})
	if !plan.Modeled {
		t.Fatal("plan must be cost-modeled")
	}
	for _, e := range plan.Entries {
		if len(e.Trials) != 1 {
			t.Fatalf("reuse-on plan packed %+v; sequential is always cheaper under the model", e)
		}
		if e.Seq {
			t.Fatalf("packable solo entries stay non-Seq: %+v", e)
		}
	}
	if plan.Solo != 4 || plan.Packed != 0 {
		t.Fatalf("stats = %+v", plan)
	}
	// Each solo entry keeps its own cut, deepest first.
	wantCuts := []int{8, 5, 5, 2}
	for i, e := range plan.Entries {
		if e.Cut != wantCuts[i] {
			t.Fatalf("entry %d cut = %d, want %d", i, e.Cut, wantCuts[i])
		}
	}
}

// TestBuildAutoReuseOff: without reuse every sequential trial pays the
// full forward, so cut-similar trials share their prefix in packs.
func TestBuildAutoReuseOff(t *testing.T) {
	trials := []Trial{
		{Trial: 0, Sample: 0, Cut: 5, Packable: true},
		{Trial: 1, Sample: 0, Cut: 5, Packable: true},
		{Trial: 2, Sample: 0, Cut: 5, Packable: true},
		{Trial: 3, Sample: 0, Cut: 5, Packable: true},
	}
	plan := Build(trials, Config{K: 4, Mode: ModeAuto, Reuse: false, Costs: uniformCosts()})
	if len(plan.Entries) != 1 || len(plan.Entries[0].Trials) != 4 || plan.Entries[0].Cut != 5 {
		t.Fatalf("equal-cut reuse-off plan = %+v, want one pack of 4 at cut 5", plan.Entries)
	}
	if plan.Packed != 4 {
		t.Fatalf("stats = %+v", plan)
	}
}

// TestBuildAutoDeepOutlier: one cut-0 trial in a group of deep cuts must
// not drag the whole pack's shared cut to 0 — the model isolates it.
func TestBuildAutoDeepOutlier(t *testing.T) {
	trials := []Trial{
		{Trial: 0, Sample: 0, Cut: 9, Packable: true},
		{Trial: 1, Sample: 0, Cut: 9, Packable: true},
		{Trial: 2, Sample: 0, Cut: 0, Packable: true},
		{Trial: 3, Sample: 0, Cut: 9, Packable: true},
	}
	plan := Build(trials, Config{K: 4, Mode: ModeAuto, Reuse: false, Costs: uniformCosts()})
	if len(plan.Entries) != 2 {
		t.Fatalf("outlier plan = %+v, want pack + singleton", plan.Entries)
	}
	pack, solo := plan.Entries[0], plan.Entries[1]
	if !reflect.DeepEqual(pack.Trials, []int{0, 1, 3}) || pack.Cut != 9 {
		t.Fatalf("deep pack = %+v, want trials [0 1 3] at cut 9", pack)
	}
	if !reflect.DeepEqual(solo.Trials, []int{2}) || solo.Cut != 0 || solo.Seq {
		t.Fatalf("outlier entry = %+v, want non-Seq singleton of trial 2 at cut 0", solo)
	}
}

// TestBuildAutoNoCosts: ModeAuto without a usable table degrades to
// ModePack's grouping exactly.
func TestBuildAutoNoCosts(t *testing.T) {
	for name, costs := range map[string]*CostTable{"nil": nil, "zero": NewCostTable([]float64{0, 0})} {
		auto := Build(packerSpecs(), Config{K: 2, Mode: ModeAuto, Costs: costs})
		pack := Build(packerSpecs(), Config{K: 2, Mode: ModePack})
		if auto.Modeled {
			t.Fatalf("%s: plan claims to be modeled", name)
		}
		if !reflect.DeepEqual(auto.Entries, pack.Entries) {
			t.Fatalf("%s: auto = %+v, pack = %+v", name, auto.Entries, pack.Entries)
		}
	}
}

// TestBuildDeterministic: repeated builds of the same inputs are
// deep-equal — no map-iteration or tie-break nondeterminism.
func TestBuildDeterministic(t *testing.T) {
	trials := []Trial{
		{Trial: 0, Sample: 3, Cut: 4, Packable: true},
		{Trial: 1, Sample: 1, Cut: 4, Packable: true},
		{Trial: 2, Sample: 3, Cut: 4, Packable: true},
		{Trial: 3, Sample: 1, Cut: 2, Packable: true},
		{Trial: 4, Sample: 3, Cut: 0, Packable: false},
		{Trial: 5, Sample: 1, Cut: 4, Packable: true},
	}
	cfg := Config{K: 3, Mode: ModeAuto, Reuse: false, Costs: NewCostTable([]float64{4, 1, 2, 3, 1})}
	first := Build(trials, cfg)
	for i := 0; i < 20; i++ {
		if got := Build(trials, cfg); !reflect.DeepEqual(got, first) {
			t.Fatalf("build %d = %+v, first = %+v", i, got, first)
		}
	}
}
