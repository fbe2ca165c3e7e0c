package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// exactCounters are the per-layer counts that are functions of the seed
// and the sizes alone, so two runs at one seed must report them equal.
// (The prefix hit/miss split is not among them: which worker warms which
// sample first is scheduling.)
var exactCounters = []string{
	"experiments.eligible_samples",
	"core.perturb_neuron", "core.perturb_weight",
	"campaign.prefix_fallbacks", "campaign.sched_packed_trials", "campaign.sched_solo_trials",
	"campaign.sched_seq_trials", "campaign.batch_seq_fallbacks", "campaign.skipped",
	"serve.checkpoint_writes", "serve.records_folded", "serve.envcache_hits",
}

// readRecords loads a file of run records, one JSON object per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s:%d: schema %q, want %q", path, line, r.Schema, recordSchema)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// spread is the distance between the first and third quartile of xs as
// a share of their median: the run-to-run noise a difference has to
// exceed. The quartiles are the ones Python's statistics.quantiles(xs,
// n=4) gives, because that is what the driver computes.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 || median(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(xs)
}

// runSet indexes one file's records.
type runSet struct {
	values            map[string]map[string][]float64 // workload → end-to-end metric → one value per untraced run
	attempted, failed map[string]int
	digests           map[string]string  // workload/seed → digest
	counters          map[string]float64 // workload/seed/counter → value (traced runs)
	env               envStamp
}

func indexRuns(recs []record) (runSet, error) {
	s := runSet{
		values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{},
		digests: map[string]string{}, counters: map[string]float64{},
	}
	for _, r := range recs {
		s.env = r.Env
		key := fmt.Sprintf("%s/seed=%d", r.Workload, r.Seed)
		if d, ok := s.digests[key]; ok && d != r.AggregateDigest {
			return s, fmt.Errorf("%s: two runs in one file disagree on aggregate_digest (%s, %s)", key, d, r.AggregateDigest)
		}
		s.digests[key] = r.AggregateDigest
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
		if r.Trace {
			for _, name := range exactCounters {
				s.counters[key+"/"+name] = r.Metrics[name].Value
			}
			continue
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
	}
	return s, nil
}

// runCompare is `bench compare a.jsonl b.jsonl`: b against a, per
// workload and end-to-end metric. It exits 1 when b is worse than a by
// more than a metric's bound, fails a larger share of its operations,
// or changes a simulated statistic at an equal seed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: usage: compare <a.jsonl> <b.jsonl>")
		return 2
	}
	var sets [2]runSet
	for i, path := range args {
		recs, err := readRecords(path)
		if err == nil {
			sets[i], err = indexRuns(recs)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	a, b := sets[0], sets[1]
	if a.env != b.env {
		fmt.Fprintf(stdout, "environments differ:\n  a: %+v\n  b: %+v\n", a.env, b.env)
	}

	bad := 0
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tb vs a\tspread\tbound\tverdict")
	for _, w := range sortedKeys(a.values) {
		if b.values[w] == nil {
			continue
		}
		for _, def := range endToEnd {
			xa, xb := a.values[w][def.Name], b.values[w][def.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			delta := (mb - ma) / ma
			worse := delta
			if def.Better == "higher" {
				worse = -delta
			}
			noise := max(spread(xa), spread(xb))
			verdict := "ok"
			switch {
			case noise > def.Bound:
				verdict = "unresolved"
			case worse > def.Bound:
				verdict = "worse"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				w, def.Name, def.Unit, ma, mb, delta*100, noise*100, def.Bound*100, verdict)
		}
	}
	tw.Flush()

	for _, w := range sortedKeys(a.attempted) {
		if b.attempted[w] == 0 || a.attempted[w] == 0 {
			continue
		}
		fa, fb := float64(a.failed[w])/float64(a.attempted[w]), float64(b.failed[w])/float64(b.attempted[w])
		if fb > fa {
			fmt.Fprintf(stdout, "%s: failed share rose from %.4g to %.4g\n", w, fa, fb)
			bad++
		}
	}
	for _, key := range sortedKeys(a.digests) {
		if d, ok := b.digests[key]; ok && d != a.digests[key] {
			fmt.Fprintf(stdout, "%s: aggregate_digest differs (%s vs %s): a speed change must leave every simulated statistic identical\n", key, a.digests[key], d)
			bad++
		}
	}
	for _, key := range sortedKeys(a.counters) {
		if v, ok := b.counters[key]; ok && v != a.counters[key] {
			fmt.Fprintf(stdout, "%s: exact-repeat counter differs (%g vs %g)\n", key, a.counters[key], v)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d finding(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no regression, no changed statistic")
	return 0
}
