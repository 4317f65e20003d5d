// Command perfbench is the serving benchmark: it sends a seeded,
// fixed-length sequence of POST /v1/plan requests straight into the real
// handler, server.New(server.Config{}).Handler().ServeHTTP, in process,
// one request in flight at a time (a closed loop with one caller, the way a
// design-space sweep or a compiler waits on each plan).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 30 --trace 0
//
// Work is measured in rounds. A round builds a fresh server, plans the
// 60-request catalogue through the handler (set-up), then sends the
// workload's sequence. Every round of a run sends the same requests, so it
// does the same work and leaves the server in the same state; rounds repeat
// until --seconds have passed, and each metric is the median over rounds.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is one JSON object; the lines before it
// are a readable summary with sample counts. The exit code is non-zero when
// a response is not a 200, a body differs from the reference planner's, or
// a /metrics counter differs between rounds.
//
// See README.md for the workloads and the reasons behind each bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the request sequence is generated from")
	seconds := fs.Int("seconds", 10, "how long to repeat rounds, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	o.duration = time.Duration(*seconds) * time.Second
	o.trace = *traced == 1
	res, err := bench(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range res.summary {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(res.report())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.correct() {
		for _, p := range res.problems {
			fmt.Fprintln(stderr, "perfbench: FAIL:", p)
		}
		return 1
	}
	return 0
}

// options is one benchmark run. limit, when positive, truncates the
// sequence; only tests use it.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	limit    int
}

// minRounds is the fewest rounds a run (or each half of a traced run) makes,
// however short --seconds is, so every median has at least three values.
const minRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run found.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	summary           []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) report() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics}
}

func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.summary = append(r.summary, fmt.Sprintf(format, args...))
}

// bench runs the workload: a warm-up, the rounds (untimed and traced
// halves when tracing), the same-work check after every round, and the
// correctness pass at the end.
func bench(o options) (*result, error) {
	cat, err := catalogue()
	if err != nil {
		return nil, err
	}
	seq, err := generate(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if o.limit > 0 && o.limit < len(seq) {
		seq = seq[:o.limit]
	}
	res := &result{metrics: map[string]metric{}}
	res.note("workload=%s seed=%d requests/round=%d (+%d catalogue set-up)", o.workload, o.seed, len(seq), len(cat))

	// Warm the runtime with one throwaway server and request.
	if _, err := runRound(cat[:1], nil, nil); err != nil {
		return nil, err
	}

	var plain, traced []*round
	var hostUS []float64
	var first *round
	check := func(rd *round) {
		res.attempted += len(cat) + len(seq)
		res.failed += rd.failed
		if first == nil {
			first = rd
			return
		}
		differ := 0
		for i, d := range rd.digests {
			if d != first.digests[i] {
				differ++
			}
		}
		if differ > 0 {
			res.failed += differ
			res.problems = append(res.problems, fmt.Sprintf("%d bodies differ from the first round's", differ))
		}
		if diff, ok := sameWorkDiff(first.atSetup, rd.atSetup); ok {
			res.problems = append(res.problems, "same-work check after set-up: "+diff)
		}
		if diff, ok := sameWorkDiff(first.atEnd, rd.atEnd); ok {
			res.problems = append(res.problems, "same-work check: "+diff)
		}
		// Only the first round's digests and counters, and the traced
		// rounds' counters, are read later.
		rd.digests = nil
		if rd.layers == nil {
			rd.atSetup, rd.atEnd = nil, nil
		}
	}
	repeat := func(d time.Duration, tr *tracer) ([]*round, error) {
		var rounds []*round
		start := time.Now()
		for len(rounds) < minRounds || time.Since(start) < d {
			hostUS = append(hostUS, hostRef())
			rd, err := runRound(cat, seq, tr)
			if err != nil {
				return nil, err
			}
			check(rd)
			rounds = append(rounds, rd)
		}
		return rounds, nil
	}
	if !o.trace {
		if plain, err = repeat(o.duration, nil); err != nil {
			return nil, err
		}
	} else {
		if plain, err = repeat(o.duration/2, nil); err != nil {
			return nil, err
		}
		if traced, err = repeat(o.duration/2, newTracer()); err != nil {
			return nil, err
		}
	}
	peakMB, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	chk, err := verify(cat, seq, first.digests)
	if err != nil {
		return nil, err
	}
	res.failed += chk.failed
	res.problems = append(res.problems, chk.problems...)
	if diff, ok := sameWorkDiff(first.atEnd, chk.counters); ok {
		res.problems = append(res.problems, "same-work check (correctness pass): "+diff)
	}
	res.note("rounds=%d untraced, %d traced; correctness pass: %d failed of %d requests; host.ref_us=%.2f",
		len(plain), len(traced), chk.failed, len(cat)+len(seq), median(hostUS))

	if !o.trace {
		endToEnd(res, plain, peakMB, chk)
	} else {
		if err := perLayer(res, plain, traced, seq, median(hostUS)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEnd sets the metrics a user of the server sees.
func endToEnd(res *result, rounds []*round, peakMB float64, chk *checkResult) {
	n := rounds[0].n
	res.set("setup_s", "s", medianOf(rounds, func(rd *round) float64 { return rd.setup.Seconds() }))
	res.set("throughput_rps", "1/s", medianOf(rounds, func(rd *round) float64 { return rd.rps }))
	res.set("latency_p50_ms", "ms", medianOf(rounds, func(rd *round) float64 { return rd.p50 }))
	res.set("latency_p99_ms", "ms", medianOf(rounds, func(rd *round) float64 { return rd.p99 }))
	res.set("last_decile_p50_ms", "ms", medianOf(rounds, func(rd *round) float64 { return rd.lastDecileP50 }))
	res.set("peak_rss_mb", "MB", peakMB)
	res.set("retained_heap_mb", "MB", medianOf(rounds, func(rd *round) float64 { return rd.retainedMB }))
	res.set("plan_dram_mb", "MB", chk.dramMB)
	res.set("plan_latency_mcycles", "Mcycles", chk.latencyMcycles)
	res.note("latency samples: %d per round (p99 has %d beyond it; last decile %d), %d rounds",
		n, n-rank(n, 0.99)-1, n/10, len(rounds))
	res.summarise()
}

// perLayer sets the per-layer metrics: times from the traced rounds,
// runtime counts from the untraced ones, and the server's own counters as
// deltas over the sequence.
func perLayer(res *result, plain, traced []*round, seq []request, hostUS float64) error {
	us := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	seqDelta := func(rd *round, series string) float64 { return rd.atEnd[series] - rd.atSetup[series] }

	res.set("server.request_us", "us", medianOf(traced, func(rd *round) float64 { return us(rd.layers.request, rd.layers.n) }))
	res.set("server.decode_us", "us", medianOf(traced, func(rd *round) float64 { return us(rd.layers.decode, rd.layers.n) }))
	res.set("model.resolve_us", "us", medianOf(traced, func(rd *round) float64 { return us(rd.layers.resolve, rd.layers.n) }))
	res.set("scratchmem.key_us", "us", medianOf(traced, func(rd *round) float64 { return us(rd.layers.key, rd.layers.n) }))
	res.set("scratchmem.encode_us", "us", medianOf(traced, func(rd *round) float64 { return us(rd.layers.encode, rd.layers.misses) }))
	res.set("scratchmem.body_kb", "kB", medianOf(traced, func(rd *round) float64 {
		return float64(rd.layers.bodyBytes) / 1024 / float64(max(rd.layers.misses, 1))
	}))
	res.set("core.plan_us", "us", medianOf(traced, func(rd *round) float64 { return us(rd.layers.plan, rd.layers.misses) }))
	res.set("core.planner_mean_us", "us", medianOf(traced, func(rd *round) float64 {
		return 1e6 * rd.atEnd["smm_planner_latency_seconds_sum"] / max(rd.atEnd["smm_planner_latency_seconds_count"], 1)
	}))
	// What the layers above do not account for: the handler's own
	// plumbing, the cache, and the write. The planner's share is the
	// server's own timing over the sequence.
	res.set("server.unaccounted_us", "us", medianOf(traced, func(rd *round) float64 {
		s := rd.layers
		planner := time.Duration(1e9 * seqDelta(rd, "smm_planner_latency_seconds_sum"))
		return us(s.request-s.decode-s.resolve-s.key-planner-s.seqEncode, s.n)
	}))
	res.set("plancache.cache_wait_mean_us", "us", medianOf(traced, func(rd *round) float64 {
		const phase = `{phase="cache_wait"}`
		return 1e6 * seqDelta(rd, "smm_phase_latency_seconds_sum"+phase) / max(seqDelta(rd, "smm_phase_latency_seconds_count"+phase), 1)
	}))

	// Counts repeat exactly between rounds (the same-work check), so the
	// first round stands for all.
	rd := plain[0]
	for _, s := range sameWork {
		res.set(s.name, "count", seqDelta(rd, s.series))
	}
	res.set("server.errors", "count", errorCount(rd.atEnd)-errorCount(rd.atSetup))
	res.set("plancache.hit_ratio", "ratio", ratio(seqDelta(rd, "smm_cache_hits_total"), seqDelta(rd, "smm_cache_misses_total")))
	res.set("policy.memo_hit_ratio", "ratio", ratio(seqDelta(rd, "smm_estimate_memo_hits_total"), seqDelta(rd, "smm_estimate_memo_misses_total")))
	res.set("core.spliced_share", "ratio", ratio(seqDelta(rd, `smm_incremental_plans_total{outcome="spliced"}`), seqDelta(rd, `smm_incremental_plans_total{outcome="full"}`)))

	n := float64(rd.n)
	res.set("runtime.allocs_per_req", "allocs", medianOf(plain, func(rd *round) float64 { return float64(rd.mallocs) / n }))
	res.set("runtime.gc_cycles_per_kreq", "count", medianOf(plain, func(rd *round) float64 { return 1000 * float64(rd.gcs) / n }))
	resolveAllocs, keyAllocs, err := allocsPerCall(seq)
	if err != nil {
		return err
	}
	res.set("model.resolve_allocs", "allocs", resolveAllocs)
	res.set("scratchmem.key_allocs", "allocs", keyAllocs)

	rps := func(rd *round) float64 { return rd.rps }
	res.set("trace.overhead_pct", "%", 100*(medianOf(plain, rps)/medianOf(traced, rps)-1))
	res.set("host.ref_us", "us", hostUS)
	res.summarise()
	return nil
}

// summarise adds one readable line per metric.
func (r *result) summarise() {
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.note("%-32s %14s %s", k, strconv.FormatFloat(r.metrics[k].Value, 'g', 6, 64), r.metrics[k].Unit)
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(float64(n)*q))-1, 0), n-1)
}

// quantileMS is the nearest-rank q-quantile of ds, in milliseconds.
func quantileMS(ds []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rank(len(s), q)].Nanoseconds()) / 1e6
}

// medianOf is the median over rounds of f.
func medianOf(rounds []*round, f func(*round) float64) float64 {
	v := make([]float64, len(rounds))
	for i, rd := range rounds {
		v[i] = f(rd)
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
