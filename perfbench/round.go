package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"scratchmem/internal/server"
)

// recorder is a minimal reusable http.ResponseWriter: the handler writes
// into it in process, so no transport cost lands in the timings.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
}

// target is one fresh server driven through its real handler.
type target struct {
	h   http.Handler
	rec recorder
}

func newTarget() *target {
	return &target{h: server.New(server.Config{}).Handler(), rec: recorder{hdr: http.Header{}}}
}

// serve runs one request through the handler and returns its latency; the
// response stays in t.rec until the next call.
func (t *target) serve(req *http.Request) time.Duration {
	t.rec.reset()
	start := time.Now()
	t.h.ServeHTTP(&t.rec, req)
	return time.Since(start)
}

// counters scrapes GET /metrics into series → value.
func (t *target) counters() (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	t.serve(req)
	if t.rec.code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", t.rec.code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&t.rec.body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sameWork are the /metrics series that must repeat exactly, round after
// round and run after run, for one seed: a difference means the workload
// did different work, which is a defect, not noise. Each is reported under
// its per-layer name.
var sameWork = []struct{ name, series string }{
	{"plancache.hits", "smm_cache_hits_total"},
	{"plancache.misses", "smm_cache_misses_total"},
	{"plancache.evictions", "smm_cache_evictions_total"},
	{"policy.memo_hits", "smm_estimate_memo_hits_total"},
	{"policy.memo_misses", "smm_estimate_memo_misses_total"},
	{"core.plans_spliced", `smm_incremental_plans_total{outcome="spliced"}`},
	{"core.plans_full", `smm_incremental_plans_total{outcome="full"}`},
	{"core.layers_reused", "smm_incremental_layers_reused_total"},
	{"server.degraded_plans", "smm_degraded_plans_total"},
}

// errorCount sums smm_errors_total over every status label.
func errorCount(c map[string]float64) float64 {
	var n float64
	for k, v := range c {
		if strings.HasPrefix(k, "smm_errors_total{") {
			n += v
		}
	}
	return n
}

// sameWorkDiff names the first same-work series on which a and b differ.
func sameWorkDiff(a, b map[string]float64) (string, bool) {
	for _, s := range sameWork {
		if a[s.series] != b[s.series] {
			return fmt.Sprintf("%s (%s): %g vs %g", s.name, s.series, a[s.series], b[s.series]), true
		}
	}
	if ea, eb := errorCount(a), errorCount(b); ea != eb {
		return fmt.Sprintf("server.errors (smm_errors_total): %g vs %g", ea, eb), true
	}
	return "", false
}

// round is one fresh server: set-up (the catalogue), then the workload's
// sequence, one request in flight at a time.
type round struct {
	setup time.Duration
	// n sequence requests took rps, p50, p99 and lastDecileP50: the
	// round's latencies are reduced to these at once, so the benchmark's
	// memory does not grow with the number of rounds.
	n                            int
	rps, p50, p99, lastDecileP50 float64
	digests                      []uint64 // per request, catalogue first, then sequence
	failed                       int      // non-200 responses
	// atSetup and atEnd are /metrics after the catalogue and after the
	// sequence.
	atSetup, atEnd map[string]float64
	// retainedMB is the live heap with the server still referenced, less
	// the live heap before it was built.
	retainedMB float64
	// mallocs and gcs are the runtime's counts over the sequence alone.
	mallocs, gcs uint64
	layers       *layerSums // traced rounds only
}

// digestSeed keys body digests; one seed per process is all the comparisons
// between rounds of one run need.
var digestSeed = maphash.MakeSeed()

// runRound drives one round. With tr set, every request is also traced
// (see tracer); the server's own work is the same either way.
func runRound(cat, seq []request, tr *tracer) (*round, error) {
	all := concat(cat, seq)
	reqs := make([]*http.Request, len(all))
	for i := range all {
		req, err := http.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(all[i].body))
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	lat := make([]time.Duration, len(seq))
	rd := &round{n: len(seq), digests: make([]uint64, len(all))}
	if tr != nil {
		rd.layers = &layerSums{}
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc

	send := func(t *target, i int) (d time.Duration, err error) {
		if tr != nil {
			d, err = tr.serve(t, reqs[i], &all[i], i >= len(cat), rd.layers)
		} else {
			d = t.serve(reqs[i])
		}
		if t.rec.code != http.StatusOK {
			rd.failed++
		}
		rd.digests[i] = maphash.Bytes(digestSeed, t.rec.body.Bytes())
		return d, err
	}

	start := time.Now()
	t := newTarget()
	for i := range cat {
		if _, err := send(t, i); err != nil {
			return nil, err
		}
	}
	rd.setup = time.Since(start)
	var err error
	if rd.atSetup, err = t.counters(); err != nil {
		return nil, err
	}

	runtime.ReadMemStats(&ms)
	mallocs, gcs := ms.Mallocs, ms.NumGC
	for i := range seq {
		if lat[i], err = send(t, len(cat)+i); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms)
	rd.mallocs, rd.gcs = ms.Mallocs-mallocs, uint64(ms.NumGC-gcs)

	if rd.atEnd, err = t.counters(); err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rd.retainedMB = float64(int64(ms.HeapAlloc)-int64(baseHeap)) / (1 << 20)
	runtime.KeepAlive(t)

	if len(lat) > 0 {
		rd.rps = float64(len(lat)) / sum(lat).Seconds()
		rd.p50, rd.p99 = quantileMS(lat, 0.50), quantileMS(lat, 0.99)
		rd.lastDecileP50 = quantileMS(lat[len(lat)-max(len(lat)/10, 1):], 0.50)
	}
	return rd, nil
}
