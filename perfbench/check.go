package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"net/http"

	scratchmem "scratchmem"
)

// checkResult is the outcome of the correctness pass.
type checkResult struct {
	failed   int
	problems []string // the first few failures, for the report
	// counters is /metrics after the pass, for the same-work check.
	counters map[string]float64
	// dramMB and latencyMcycles are the means of totals.access_bytes and
	// totals.latency_cycles over the sequence's answers.
	dramMB, latencyMcycles float64
}

func (c *checkResult) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// reference plans a request with the library alone (no server, no shared
// memo, no differential planner) and renders the canonical document.
func reference(r *request) ([]byte, *scratchmem.PlanDoc, error) {
	p, err := scratchmem.PlanModel(r.net, r.opts)
	if err != nil {
		return nil, nil, err
	}
	doc := scratchmem.PlanDocument(p)
	body, err := doc.MarshalIndent()
	return body, doc, err
}

// verify replays the catalogue and the sequence on a fresh server, outside
// any timed window. Every response must be a 200, must equal the body the
// timed rounds got for the same request (digests), and every distinct body
// must equal the reference byte for byte.
func verify(cat, seq []request, digests []uint64) (*checkResult, error) {
	res := &checkResult{}
	t := newTarget()
	refs := map[string]*scratchmem.PlanDoc{}
	var dram, cycles float64
	all := concat(cat, seq)
	for i := range all {
		r := &all[i]
		req, err := http.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		t.serve(req)
		got := t.rec.body.Bytes()
		if t.rec.code != http.StatusOK {
			res.fail("request %d: status %d: %s", i, t.rec.code, bytes.TrimSpace(got))
			continue
		}
		if maphash.Bytes(digestSeed, got) != digests[i] {
			res.fail("request %d: body differs from the timed rounds' body", i)
		}
		doc, ok := refs[string(r.body)]
		if !ok {
			want, d, err := reference(r)
			if err != nil {
				return nil, fmt.Errorf("reference plan for request %d: %w", i, err)
			}
			if !bytes.Equal(got, want) {
				res.fail("request %d: body differs from the reference plan document", i)
			}
			doc = d
			refs[string(r.body)] = doc
		}
		if i >= len(cat) {
			dram += float64(doc.Totals.AccessBytes)
			cycles += float64(doc.Totals.LatencyCycles)
		}
	}
	res.dramMB = dram / (1 << 20) / float64(len(seq))
	res.latencyMcycles = cycles / 1e6 / float64(len(seq))
	var err error
	res.counters, err = t.counters()
	return res, err
}
