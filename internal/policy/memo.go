package policy

import (
	"context"
	"sync/atomic"

	"scratchmem/internal/layer"
	"scratchmem/internal/memotab"
)

// LayerKey is the canonical shape identity of a layer: every geometric
// field the estimators read, and nothing else — in particular not the
// name. The estimators are pure functions of (shape, options, config), so
// identically-shaped layers (ResNet's repeated basic blocks, MobileNet's
// depthwise stacks) share one key and one cached estimate.
type LayerKey struct {
	Kind                        layer.Type
	IH, IW, CI, FH, FW, F, S, P int
}

// KeyOf extracts the shape key of l.
func KeyOf(l *layer.Layer) LayerKey {
	return LayerKey{Kind: l.Kind, IH: l.IH, IW: l.IW, CI: l.CI,
		FH: l.FH, FW: l.FW, F: l.F, S: l.S, P: l.P}
}

// memoKey identifies one estimator invocation completely: the layer shape,
// the policy, the variant options, the full accelerator configuration and
// the filter-block mode. Two invocations with equal keys return equal
// Results (up to the layer name, which the table strips on store and
// patches back on hit).
type memoKey struct {
	shape LayerKey
	id    ID
	opts  Options
	cfg   Config
	// n is the forced filter-block size (EstimateN), 0 for policies
	// without a block size, or memoAutoN for Estimate's auto-selection.
	n int64
}

// memoAutoN marks Estimate's auto-selected block size in the key; the
// selection is itself a pure function of (shape, options, config), so the
// sentinel is unambiguous.
const memoAutoN = int64(-1)

func (k *memoKey) hash() uint64 {
	opts := Bits(k.opts.Prefetch, k.opts.ResidentIfmap, k.opts.KeepOfmap)
	return KeyHash(&k.shape, &k.cfg, uint64(k.id)|opts<<8|uint64(k.n)<<16)
}

// Bits packs flags into a word for KeyHash's extra bits, first flag lowest.
func Bits(flags ...bool) uint64 {
	var w uint64
	for i, f := range flags {
		if f {
			w |= 1 << i
		}
	}
	return w
}

// KeyHash mixes a layer shape, an accelerator configuration and one word
// of caller-specific key bits into the 64-bit hash every memo tier indexes
// by: each tier's key is (shape, config, a few small fields), so one helper
// serves them all. Colliding extra bits only cost a key comparison.
func KeyHash(s *LayerKey, cfg *Config, extra uint64) uint64 {
	const prime = 1099511628211
	if cfg.IncludePadding {
		extra ^= 1 << 63
	}
	h := uint64(14695981039346656037)
	h = (h ^ uint64(s.Kind)) * prime
	h = (h ^ uint64(s.IH)) * prime
	h = (h ^ uint64(s.IW)) * prime
	h = (h ^ uint64(s.CI)) * prime
	h = (h ^ uint64(s.FH)) * prime
	h = (h ^ uint64(s.FW)) * prime
	h = (h ^ uint64(s.F)) * prime
	h = (h ^ uint64(s.S)) * prime
	h = (h ^ uint64(s.P)) * prime
	h = (h ^ uint64(cfg.GLBBytes)) * prime
	h = (h ^ uint64(cfg.DataWidthBits)) * prime
	h = (h ^ uint64(cfg.OpsPerCycle)) * prime
	h = (h ^ uint64(cfg.DRAMBytesPerCycle)) * prime
	h = (h ^ uint64(cfg.Batch)) * prime
	h = (h ^ extra) * prime
	// Fold the high bits down: tables index buckets by the low bits, which
	// FNV alone leaves poorly mixed for keys differing in one high field.
	return h ^ h>>32
}

// Memo tiers, indexing MemoStats.Tiers: the estimate table itself, and the
// core planner's winner and sweep-row tables in its Companion.
const (
	TierEstimate = iota
	TierWinner
	TierSweep
	NumTiers
)

// tierNames label the tiers on /metrics and in the status document.
var tierNames = [NumTiers]string{"estimate", "winner", "sweep"}

// runMemoEntries is NewMemo's estimate-tier capacity per generation: one
// planning run touches at most a few thousand distinct keys (unique shapes
// × policy variants × ladder rungs), so one run never rotates.
const runMemoEntries = 4096

// Memo is a concurrency-safe, bounded estimate table (see memotab). One
// table is shared across a whole planning run (core.Planner and the
// degradation-ladder copies made from it) or a server's lifetime, so the
// dynamic program's (resident, keep) re-probes and every repeated layer
// shape cost one estimation and then a lock-free probe.
//
// A nil *Memo is valid and computes directly, so call sites never need a
// nil check; that nil path is also the sequential reference the golden
// equivalence tests compare against.
type Memo struct {
	hits, misses atomic.Int64
	// companion holds one opaque caller-attached cache (see Companion).
	companion atomic.Value
	// capacity is est's per-generation capacity (see TierCapacity).
	capacity int
	est      memotab.Table[memoKey, Result]
}

// Companion returns the opaque cache attached to this table, installing
// create()'s result on first use (first installer wins under a race). The
// core planner uses it to hang its per-layer winner cache off the same
// lifetime as the estimate table, so "share one memo" also means "share
// every cached planning decision" without this package importing core.
func (m *Memo) Companion(create func() any) any {
	if c := m.companion.Load(); c != nil {
		return c
	}
	c := create()
	if m.companion.CompareAndSwap(nil, c) {
		return c
	}
	return m.companion.Load()
}

// NewMemo returns a table sized for one planning run.
func NewMemo() *Memo { return NewMemoCap(runMemoEntries) }

// NewMemoCap returns a table whose estimate tier holds at most maxEntries
// entries per generation, 2×maxEntries in all (0 or negative selects
// NewMemo's size). Past the bound the oldest generation is dropped; its
// entries are recomputed on their next miss, so answers never change.
func NewMemoCap(maxEntries int) *Memo {
	if maxEntries <= 0 {
		maxEntries = runMemoEntries
	}
	m := &Memo{capacity: maxEntries}
	m.est.Init(maxEntries)
	return m
}

// TierCapacity returns the per-generation capacity of a tier. The winner
// tier's keys are (shape, config, variant) questions, each answering a
// sweep of about a dozen estimate keys, so it gets an eighth of the
// estimate tier; the sweep-row tier, one row per (shape, config), a
// thirty-second.
func (m *Memo) TierCapacity(tier int) int {
	switch tier {
	case TierWinner:
		return max(m.capacity/8, 1)
	case TierSweep:
		return max(m.capacity/32, 1)
	}
	return m.capacity
}

// TierStats sizes one memo tier.
type TierStats struct {
	Tier      string `json:"tier"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Rotations int64  `json:"rotations"`
}

// TierSizer is implemented by a Companion holding memo tiers of its own;
// Stats asks it to fill in their entries and rotations.
type TierSizer interface {
	SizeTiers(t *[NumTiers]TierStats)
}

// MemoStats is a point-in-time snapshot of the table's counters. Hits and
// Misses count every tier; Entries is the estimate tier's entry count.
type MemoStats struct {
	Hits    int64               `json:"hits"`
	Misses  int64               `json:"misses"`
	Entries int                 `json:"entries"`
	Tiers   [NumTiers]TierStats `json:"tiers"`
}

// CountHit folds one companion-cache hit into the memo's counters, so the
// tiered caches attached via Companion (the planner's per-layer winner and
// sweep-row tables) and the estimate table itself report one efficacy
// figure. Nil-safe.
func (m *Memo) CountHit() {
	if m != nil {
		m.hits.Add(1)
	}
}

// CountMiss is CountHit for companion-cache misses. Nil-safe.
func (m *Memo) CountMiss() {
	if m != nil {
		m.misses.Add(1)
	}
}

// Stats snapshots the hit/miss counters and every tier's size. Nil-safe.
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	st := MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load()}
	for i := range st.Tiers {
		st.Tiers[i] = TierStats{Tier: tierNames[i], Capacity: 2 * m.TierCapacity(i)}
	}
	es := m.est.Stats()
	st.Entries = es.Entries
	st.Tiers[TierEstimate].Entries, st.Tiers[TierEstimate].Rotations = es.Entries, es.Rotations
	if ts, ok := m.companion.Load().(TierSizer); ok {
		ts.SizeTiers(&st.Tiers)
	}
	return st
}

// Estimate is the memoized form of Estimate, with EstimateFast's sweep
// contract: feasible results are byte-identical to Estimate's, infeasible
// ones carry the identifying and capacity fields only. Nil receivers
// compute directly (the full, unmemoized Estimate).
func (m *Memo) Estimate(l *layer.Layer, id ID, o Options, cfg Config) Result {
	var r Result
	m.EstimateInto(&r, l, id, o, cfg)
	return r
}

// EstimateInto is Estimate writing its result in place, sparing the
// homogeneous sweep's hot path a Result copy per probe.
func (m *Memo) EstimateInto(e *Result, l *layer.Layer, id ID, o Options, cfg Config) {
	if m == nil {
		*e = Estimate(l, id, o, cfg)
		return
	}
	n := int64(0)
	if id == P4PartialIfmap || id == P5PartialPerChannel {
		n = memoAutoN
	}
	k := memoKey{shape: KeyOf(l), id: id, opts: o, cfg: cfg, n: n}
	h := k.hash()
	if r := m.lookup(&k, h); r != nil {
		*e = *r
		e.Layer = l.Name
		return
	}
	sh := NewShape(l, cfg.IncludePadding)
	sh.EstimateFastInto(e, id, o, cfg)
	if !e.Feasible {
		// e may carry a previous probe's traffic fields (the Into sweep
		// contract); scrub them so the stored entry honours Estimate's
		// zero-fields guarantee for infeasible results.
		e.IfmapLoads, e.FilterLoads = 0, 0
		e.AccessIfmap, e.AccessFilter, e.AccessOfmap = 0, 0, 0
		e.AccessElems, e.AccessBytes = 0, 0
		e.ComputeCycles, e.TransferCycles, e.LatencyCycles = 0, 0, 0
	}
	m.store(&k, h, e)
}

// EstimateN is the memoized form of EstimateN. The key uses the same
// block-size normalisation as the estimator, so forcing n on a policy that
// ignores it shares the entry with the unforced call.
func (m *Memo) EstimateN(l *layer.Layer, id ID, o Options, cfg Config, n int64) Result {
	if m == nil {
		return EstimateN(l, id, o, cfg, n)
	}
	switch {
	case id != P4PartialIfmap && id != P5PartialPerChannel:
		n = 0
	case l.Kind == layer.DepthwiseConv || n < 1:
		n = 1
	}
	k := memoKey{shape: KeyOf(l), id: id, opts: o, cfg: cfg, n: n}
	return m.cached(l, &k, func() Result { return EstimateN(l, id, o, cfg, n) })
}

// Fallback is the memoized form of FallbackEstimate.
func (m *Memo) Fallback(l *layer.Layer, o Options, cfg Config) Result {
	if m == nil {
		return FallbackEstimate(l, o, cfg)
	}
	k := memoKey{shape: KeyOf(l), id: FallbackTiled, opts: o, cfg: cfg}
	return m.cached(l, &k, func() Result { return FallbackEstimate(l, o, cfg) })
}

// cached answers k for layer l from the table, or computes and stores it.
func (m *Memo) cached(l *layer.Layer, k *memoKey, compute func() Result) Result {
	h := k.hash()
	if e := m.lookup(k, h); e != nil {
		r := *e
		r.Layer = l.Name
		return r
	}
	r := compute()
	m.store(k, h, &r)
	return r
}

// lookup returns the stored result for k, or nil. The pointee is shared
// and immutable; callers copy it (patching the layer name on the copy).
func (m *Memo) lookup(k *memoKey, h uint64) *Result {
	if r := m.est.Get(h, k); r != nil {
		m.hits.Add(1)
		return r
	}
	m.misses.Add(1)
	return nil
}

// store publishes r under k without its layer name: keys are name-free,
// and hits patch the caller's name back.
func (m *Memo) store(k *memoKey, h uint64, r *Result) {
	v := *r
	v.Layer = ""
	m.est.Put(h, k, &v)
}

// memoCtxKey carries a *Memo through a context (see WithMemo).
type memoCtxKey struct{}

// WithMemo returns a context carrying m. The serving path uses this to
// scope one long-lived, capped table to a server instance: the façade's
// planner picks it up via MemoFrom, so the server's /metrics can report
// hit rates without any package-global state.
func WithMemo(ctx context.Context, m *Memo) context.Context {
	return context.WithValue(ctx, memoCtxKey{}, m)
}

// MemoFrom returns the Memo carried by ctx, or nil.
func MemoFrom(ctx context.Context) *Memo {
	m, _ := ctx.Value(memoCtxKey{}).(*Memo)
	return m
}
