package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/model"
)

func mustGenerate(t *testing.T, workload string, seed int64) []request {
	t.Helper()
	seq, err := generate(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func joined(seq []request) []byte {
	var b bytes.Buffer
	for _, r := range seq {
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, b := joined(mustGenerate(t, w, 7)), joined(mustGenerate(t, w, 7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two sequences from seed 7 differ", w)
		}
		if bytes.Equal(a, joined(mustGenerate(t, w, 8))) {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w)
		}
	}
}

func TestColdSoakKeysAreDistinct(t *testing.T) {
	cat, err := catalogue()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, r := range concat(cat, mustGenerate(t, coldSoak, 3)) {
		key, err := scratchmem.PlanKey(r.net, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		if seen[key] {
			t.Fatalf("request %d repeats an earlier plan key", i)
		}
		seen[key] = true
	}
}

func TestHotHitsStayInCatalogue(t *testing.T) {
	cat, err := catalogue()
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range cat {
		count[string(r.body)] = 0
	}
	for i, r := range mustGenerate(t, hotHits, 3) {
		if _, ok := count[string(r.body)]; !ok {
			t.Fatalf("request %d is not in the catalogue: %s", i, r.body)
		}
		count[string(r.body)]++
	}
	for body, n := range count {
		if n != hotCopies {
			t.Errorf("%s sent %d times, want %d", body, n, hotCopies)
		}
	}
}

func TestInlineMutantsDifferInOneLayer(t *testing.T) {
	seq := mustGenerate(t, inlineNeighbors, 3)
	if len(seq) < 1000 {
		t.Fatalf("%d requests: too few for ten samples beyond p99", len(seq))
	}
	for i, r := range seq {
		pr, err := decodeRequest(r.body)
		if err != nil {
			t.Fatal(err)
		}
		net, err := resolveModel(pr)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		base, err := model.Builtin(strings.SplitN(net.Name, "~", 2)[0])
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(net.Layers) != len(base.Layers) {
			t.Fatalf("request %d: %d layers, base has %d", i, len(net.Layers), len(base.Layers))
		}
		changed := 0
		for j := range net.Layers {
			if net.Layers[j] != base.Layers[j] {
				changed++
			}
		}
		if changed != 1 {
			t.Fatalf("request %d (%s): %d layers differ from the base, want 1", i, net.Name, changed)
		}
	}
}

// tinyLimits keeps every workload's test run to a fraction of a second of
// planning while still covering splices, evictions and both modes.
var tinyLimits = map[string]int{hotHits: 300, coldSoak: 80, inlineNeighbors: 12 * sweepLen}

func tinyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := bench(options{workload: workload, seed: 11, trace: trace, limit: tinyLimits[workload]})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d problems=%q", workload, res.correct(), res.attempted, res.failed, res.problems)
	}
	return res
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

func assertMetrics(t *testing.T, workload string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", workload, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for k := range got {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		t.Errorf("%s: reports %v, BENCHMARK.json lists %v", workload, extra, names)
	}
}

// TestTinyRuns runs every workload end to end, untraced and traced, and
// requires the correctness and same-work checks to pass, the same-work
// counts to repeat across runs, and the metrics to match BENCHMARK.json.
func TestTinyRuns(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		e2e := tinyRun(t, w, false)
		assertMetrics(t, w, e2e.metrics, spec.EndToEnd)
		first, second := tinyRun(t, w, true), tinyRun(t, w, true)
		assertMetrics(t, w, first.metrics, spec.PerLayer)
		for _, s := range sameWork {
			if a, b := first.metrics[s.name].Value, second.metrics[s.name].Value; a != b {
				t.Errorf("%s: %s = %g, then %g on a second run", w, s.name, a, b)
			}
		}
		switch w {
		case hotHits:
			if r := first.metrics["plancache.hit_ratio"].Value; r != 1 {
				t.Errorf("hot-hits: plancache.hit_ratio = %g, want 1", r)
			}
		case inlineNeighbors:
			if n := first.metrics["core.plans_spliced"].Value; n == 0 {
				t.Error("inline-neighbors: no plan was spliced")
			}
		}
	}
}

// TestChecksCatchDefects feeds the checks wrong expectations: a body digest
// that does not match and a counter that moved must both be caught.
func TestChecksCatchDefects(t *testing.T) {
	cat, err := catalogue()
	if err != nil {
		t.Fatal(err)
	}
	seq := mustGenerate(t, coldSoak, 1)[:6]
	rd, err := runRound(cat, seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := verify(cat, seq, rd.digests)
	if err != nil || chk.failed != 0 {
		t.Fatalf("clean pass: failed=%d err=%v problems=%q", chk.failed, err, chk.problems)
	}
	if _, differ := sameWorkDiff(rd.atEnd, chk.counters); differ {
		t.Fatal("identical replays reported as different work")
	}
	bad := append([]uint64(nil), rd.digests...)
	bad[len(bad)-1]++
	if chk, err := verify(cat, seq, bad); err != nil || chk.failed != 1 {
		t.Fatalf("corrupted digest: failed=%d err=%v, want 1 failure", chk.failed, err)
	}
	moved := map[string]float64{}
	for k, v := range rd.atEnd {
		moved[k] = v
	}
	moved["smm_cache_evictions_total"]++
	if diff, differ := sameWorkDiff(rd.atEnd, moved); !differ || !strings.Contains(diff, "plancache.evictions") {
		t.Fatalf("moved counter not named: %q", diff)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", hotHits, "--trace", "2"},
		{"--workload", hotHits, "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestQuantiles(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[len(lat)-1-i] = time.Duration(i+1) * time.Millisecond
	}
	if got := quantileMS(lat, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 ms = %g, want 990", got)
	}
	if got := quantileMS(lat, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 ms = %g, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}
