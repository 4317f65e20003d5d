package core

import (
	"scratchmem/internal/memotab"
	"scratchmem/internal/policy"
)

// bestKey identifies one bestForLayer (or bestFallback) question
// completely: the layer shape, the full accelerator configuration, the
// planner knobs that shape the candidate set, and the inter-layer variant.
// The objective is deliberately absent — one candidate sweep computes the
// winner under both objectives (see bestPair) — so an access-objective
// planner and a latency-objective planner sharing one estimate memo (the
// figure drivers, the server) also share every per-layer decision.
//
// Cfg and the flags live in the key rather than being assumed constant:
// the degradation ladder plans with copies of the Planner that share this
// cache but flip DisablePrefetch, and some experiment drivers mutate Cfg
// (e.g. Batch) between runs.
type bestKey struct {
	shape      policy.LayerKey
	cfg        policy.Config
	noPrefetch bool
	fallback   bool // bestFallback rather than bestForLayer
	resident   bool
	keep       bool
}

// bestPair is the winning estimate under each objective, indexed by
// Objective (MinAccesses = 0, MinLatency = 1). Candidate feasibility does
// not depend on the objective, so a single sweep fills both slots; when
// nothing fits, both slots carry the same infeasible fallback report.
type bestPair [2]policy.Result

// homKey identifies one homogeneous-sweep question: what does a layer of
// this shape contribute to the network totals under every (policy,
// ±prefetch) variant? The variant list is a pure function of noPrefetch,
// so the per-variant contributions can live in one fixed array keyed by
// variant index (see homContribs).
type homKey struct {
	shape      policy.LayerKey
	cfg        policy.Config
	noPrefetch bool
}

// maxHomVariants bounds the homogeneous candidate set: every policy with
// and without prefetching.
const maxHomVariants = 2 * policy.NumPolicies

// homContrib is one (shape, variant) cell of the sweep: the totals a
// layer of this shape adds under that variant, or the fallback's
// footprint when even it does not fit (the infeasibility report needs it).
type homContrib struct {
	acc, lat, need int64
	ok             bool
}

// homContribs is the dense per-variant contribution row for one shape,
// indexed by position in homVariants' deterministic order.
type homContribs [maxHomVariants]homContrib

// bestCache memoizes per-layer winners and per-shape homogeneous-sweep
// rows in two memo tables (see memotab). It attaches to the run's
// policy.Memo (see bestCacheFor) so every planner sharing that memo — the
// degradation ladder's relaxed rungs, the figure drivers' per-objective
// planners, the server's requests — shares both tables, and the Planner
// itself stays trivially copyable (no embedded locks).
type bestCache struct {
	win memotab.Table[bestKey, bestPair]
	hom memotab.Table[homKey, homContribs]
}

// bestCacheFor returns the winner cache attached to m, installing one on
// first use, sized by m's tier capacities. All planners sharing m get the
// same cache.
func bestCacheFor(m *policy.Memo) *bestCache {
	return m.Companion(func() any {
		c := &bestCache{}
		c.win.Init(m.TierCapacity(policy.TierWinner))
		c.hom.Init(m.TierCapacity(policy.TierSweep))
		return c
	}).(*bestCache)
}

// SizeTiers reports the winner and sweep-row tables' sizes into the memo's
// stats (policy.TierSizer).
func (c *bestCache) SizeTiers(t *[policy.NumTiers]policy.TierStats) {
	w, h := c.win.Stats(), c.hom.Stats()
	t[policy.TierWinner].Entries, t[policy.TierWinner].Rotations = w.Entries, w.Rotations
	t[policy.TierSweep].Entries, t[policy.TierSweep].Rotations = h.Entries, h.Rotations
}

func (k *bestKey) hash() uint64 {
	return policy.KeyHash(&k.shape, &k.cfg, policy.Bits(k.noPrefetch, k.fallback, k.resident, k.keep))
}

func (k *homKey) hash() uint64 {
	return policy.KeyHash(&k.shape, &k.cfg, policy.Bits(k.noPrefetch))
}
