package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/model"
	"scratchmem/internal/policy"
	"scratchmem/internal/server"
)

// tracer attributes a request's time to the modules it passes through. The
// program has no spans of its own on these paths yet, so around each real
// request the benchmark makes the same calls the handler makes into each
// module's public functions and times them. None of these calls touches
// the server, so a traced round does the same server work as an untraced
// one.
type tracer struct {
	// ctx carries a run-lifetime estimate memo, sized like the server's,
	// and no differential planner: core.plan_us is the planner alone.
	ctx context.Context
}

func newTracer() *tracer {
	return &tracer{ctx: policy.WithMemo(context.Background(), policy.NewMemoCap(server.DefaultMemoEntries))}
}

// layerSums accumulates one traced round. decode … request cover the
// sequence's requests; plan and encode cover every plan-cache miss of the
// round, the catalogue's included, so hot-hits measures them too.
type layerSums struct {
	n                             int
	decode, resolve, key, request time.Duration
	misses                        int
	plan, encode                  time.Duration
	bodyBytes                     int
	// seqEncode is encode over the sequence's misses alone, for the
	// unaccounted share of server.request_us.
	seqEncode time.Duration
}

// decodeRequest decodes a body the way the handler does.
func decodeRequest(body []byte) (*server.PlanRequest, error) {
	var pr server.PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pr); err != nil {
		return nil, err
	}
	return &pr, nil
}

// resolveModel builds the request's network: a builtin, or the inline JSON.
func resolveModel(pr *server.PlanRequest) (*scratchmem.Network, error) {
	if pr.Model != "" {
		return model.Builtin(pr.Model)
	}
	return model.ReadJSON(bytes.NewReader(pr.Network))
}

// serve sends one request, tracing it; inSeq says whether it belongs to the
// workload's sequence rather than the catalogue set-up.
func (tr *tracer) serve(t *target, hr *http.Request, r *request, inSeq bool, s *layerSums) (time.Duration, error) {
	t0 := time.Now()
	pr, err := decodeRequest(r.body)
	t1 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("decode: %w", err)
	}
	net, err := resolveModel(pr)
	t2 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("resolve: %w", err)
	}
	if _, err := scratchmem.PlanKey(net, r.opts); err != nil {
		return 0, fmt.Errorf("key: %w", err)
	}
	t3 := time.Now()
	d := t.serve(hr)
	if inSeq {
		s.n++
		s.decode += t1.Sub(t0)
		s.resolve += t2.Sub(t1)
		s.key += t3.Sub(t2)
		s.request += d
	}
	if t.rec.code != http.StatusOK || t.rec.hdr.Get("X-SMM-Cache") != "miss" {
		return d, nil
	}
	t4 := time.Now()
	p, err := scratchmem.PlanModelCtx(tr.ctx, net, r.opts, nil)
	t5 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("plan: %w", err)
	}
	body, err := scratchmem.PlanDocument(p).MarshalIndent()
	t6 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("encode: %w", err)
	}
	s.misses++
	s.plan += t5.Sub(t4)
	s.encode += t6.Sub(t5)
	s.bodyBytes += len(body)
	if inSeq {
		s.seqEncode += t6.Sub(t5)
	}
	return d, nil
}

// allocsPerCall counts the heap allocations of resolveModel and
// scratchmem.PlanKey per request of seq. Counts are exact, so one pass
// outside the timed rounds is enough.
func allocsPerCall(seq []request) (resolve, key float64, err error) {
	prs := make([]*server.PlanRequest, len(seq))
	for i := range seq {
		if prs[i], err = decodeRequest(seq[i].body); err != nil {
			return 0, 0, err
		}
	}
	nets := make([]*scratchmem.Network, len(seq))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i, pr := range prs {
		if nets[i], err = resolveModel(pr); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&ms)
	resolve = float64(ms.Mallocs-before) / float64(len(seq))
	before = ms.Mallocs
	for i := range seq {
		if _, err := scratchmem.PlanKey(nets[i], seq[i].opts); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&ms)
	key = float64(ms.Mallocs-before) / float64(len(seq))
	return resolve, key, nil
}
