package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	scratchmem "scratchmem"
	"scratchmem/internal/layer"
	"scratchmem/internal/model"
	"scratchmem/internal/server"
)

// Workload names, as passed to --workload.
const (
	hotHits         = "hot-hits"
	coldSoak        = "cold-soak"
	inlineNeighbors = "inline-neighbors"
)

var workloadNames = []string{hotHits, coldSoak, inlineNeighbors}

// paperGLBKB are the five GLB sizes of the paper's evaluation.
var paperGLBKB = []int{64, 128, 256, 512, 1024}

var objectives = []string{"accesses", "latency"}

// Sequence lengths. Each is at least 1,000 so every round has ten or more
// samples beyond its 99th percentile.
const (
	hotCopies    = 67   // hot-hits: copies of the 60-entry catalogue
	coldKeys     = 1500 // cold-soak: enough distinct keys to reach the growth regime
	sweepRepeats = 2    // inline-neighbors: sweeps per (builtin, GLB size, interlayer) triple
	sweepLen     = 16   // inline-neighbors: mutants per sweep
)

// request is one generated /v1/plan request: what the server is sent
// (body) and what the reference planner needs to reproduce its answer.
type request struct {
	body []byte
	net  *scratchmem.Network
	opts scratchmem.PlanOptions
}

// newRequest renders a builtin request (net == nil, name set) or an inline
// one (net set) through server.PlanRequest, so the body follows the wire
// schema the handler decodes.
func newRequest(name string, net *scratchmem.Network, glbKB int, objective string, interlayer bool) (request, error) {
	pr := server.PlanRequest{Model: name, GLBKiloBytes: glbKB, Objective: objective, InterLayerReuse: interlayer}
	if net == nil {
		var err error
		if net, err = model.Builtin(name); err != nil {
			return request{}, err
		}
	} else {
		raw, err := model.CanonicalJSON(net)
		if err != nil {
			return request{}, err
		}
		pr.Network = raw
	}
	body, err := json.Marshal(&pr)
	if err != nil {
		return request{}, err
	}
	obj := scratchmem.MinAccesses
	if objective == "latency" {
		obj = scratchmem.MinLatency
	}
	return request{body: body, net: net, opts: scratchmem.PlanOptions{
		GLBKiloBytes: glbKB, Objective: obj, InterLayerReuse: interlayer,
	}}, nil
}

// catalogue is the set-up every workload shares: each builtin at each
// paper GLB size under both objectives, 60 requests in a fixed order.
func catalogue() ([]request, error) {
	var out []request
	for _, name := range model.BuiltinNames() {
		for _, kb := range paperGLBKB {
			for _, obj := range objectives {
				r, err := newRequest(name, nil, kb, obj, false)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// concat is the order every round sends requests in: the catalogue set-up,
// then the workload's sequence.
func concat(cat, seq []request) []request {
	return append(append(make([]request, 0, len(cat)+len(seq)), cat...), seq...)
}

// generate builds a workload's request sequence from its seed. The same
// seed always yields the same bytes.
func generate(workload string, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case hotHits:
		return genHotHits(rng)
	case coldSoak:
		return genColdSoak(rng)
	case inlineNeighbors:
		return genInlineNeighbors(rng)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// genHotHits sends hotCopies copies of the catalogue, each in its own
// seeded order: every request is uniform over the catalogue, and every
// stretch of the sequence, the last decile included, has close to the same
// mix whatever the seed.
func genHotHits(rng *rand.Rand) ([]request, error) {
	cat, err := catalogue()
	if err != nil {
		return nil, err
	}
	seq := make([]request, 0, hotCopies*len(cat))
	for i := 0; i < hotCopies; i++ {
		for _, j := range rng.Perm(len(cat)) {
			seq = append(seq, cat[j])
		}
	}
	return seq, nil
}

// genColdSoak sends every builtin round-robin, flipping the objective every
// full turn, each at a GLB size no earlier request used. The sizes are a
// seeded permutation of one fixed set that skips the catalogue's, so every
// key is new to the server and every seed plans the same sizes.
func genColdSoak(rng *rand.Rand) ([]request, error) {
	names := model.BuiltinNames()
	inCatalogue := map[int]bool{}
	for _, kb := range paperGLBKB {
		inCatalogue[kb] = true
	}
	sizes := make([]int, 0, coldKeys)
	for kb := paperGLBKB[0] + 1; len(sizes) < coldKeys; kb++ {
		if !inCatalogue[kb] {
			sizes = append(sizes, kb)
		}
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	seq := make([]request, coldKeys)
	for i := range seq {
		r, err := newRequest(names[i%len(names)], nil, sizes[i], objectives[(i/len(names))%2], false)
		if err != nil {
			return nil, err
		}
		seq[i] = r
	}
	return seq, nil
}

// genInlineNeighbors sends sweeps of sweepLen one-layer mutants of a
// builtin, each as an inline network. Sweeps take the builtins round-robin
// and switch inter-layer reuse on or off at every full turn, so half of them
// plan in each mode and every stretch of the sequence, the last decile and
// the plans the cache holds at the end included, has the same mix for
// every seed. The seed picks each sweep's paper GLB size (every (builtin,
// size, mode) triple is swept sweepRepeats times) and which layer each
// mutant changes, and by how much. No mutant repeats, so every request is a
// plan-cache miss that the differential planner may splice from an earlier
// neighbour.
func genInlineNeighbors(rng *rand.Rand) ([]request, error) {
	names := model.BuiltinNames()
	turns := 2 * len(paperGLBKB) * sweepRepeats // both modes, every size, repeated
	// sizes[p] lists the GLB size of each sweep of (builtin, mode) pair p.
	sizes := make([][]int, 2*len(names))
	for p := range sizes {
		for k := 0; k < turns/2; k++ {
			sizes[p] = append(sizes[p], paperGLBKB[k%len(paperGLBKB)])
		}
		rng.Shuffle(len(sizes[p]), func(i, j int) { sizes[p][i], sizes[p][j] = sizes[p][j], sizes[p][i] })
	}
	seen := map[string]bool{}
	seq := make([]request, 0, turns*len(names)*sweepLen)
	for turn := 0; turn < turns; turn++ {
		interlayer := turn%2 == 1
		for bi, name := range names {
			base, err := model.Builtin(name)
			if err != nil {
				return nil, err
			}
			glbKB := sizes[2*bi+turn%2][turn/2]
			for m := 0; m < sweepLen; {
				idx, delta := rng.Intn(len(base.Layers)), 1+rng.Intn(8)
				id := fmt.Sprintf("%s/%d/%t/%d/%d", name, glbKB, interlayer, idx, delta)
				if seen[id] {
					continue
				}
				seen[id] = true
				net, err := mutant(base, idx, delta)
				if err != nil {
					return nil, err
				}
				r, err := newRequest("", net, glbKB, "", interlayer)
				if err != nil {
					return nil, err
				}
				seq = append(seq, r)
				m++
			}
		}
	}
	return seq, nil
}

// mutant copies base with layer idx widened by delta filters (delta input
// channels for a depth-wise layer, which has one filter per channel).
func mutant(base *scratchmem.Network, idx, delta int) (*scratchmem.Network, error) {
	layers := append([]layer.Layer(nil), base.Layers...)
	l := layers[idx]
	ci, f := l.CI, l.F+delta
	if l.Kind == layer.DepthwiseConv {
		ci, f = l.CI+delta, l.F
	}
	nl, err := layer.New(l.Name, l.Kind, l.IH, l.IW, ci, l.FH, l.FW, f, l.S, l.P)
	if err != nil {
		return nil, err
	}
	layers[idx] = nl
	return &scratchmem.Network{Name: fmt.Sprintf("%s~L%d+%d", base.Name, idx, delta), Layers: layers}, nil
}
