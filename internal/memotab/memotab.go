// Package memotab is the planner's memo table: a bounded, generational,
// lock-free chained hash table. Every cache tier of the planner (the
// estimate memo, the per-layer winner table and the homogeneous sweep-row
// table) is one Table with its own key, value and capacity.
//
// A table holds two generations, current and previous. Lookups probe
// current, then previous; stores go to current. When current is full it
// becomes previous, the old previous is dropped, and a fresh current
// starts. Memory and chain length are therefore bounded by construction,
// and a long-lived table keeps caching recent traffic instead of freezing
// on whatever came first. Values must be pure functions of their keys: a
// dropped entry is only recomputed, so answers never depend on what the
// table holds.
package memotab

import "sync/atomic"

// loadFactor is a full generation's mean chain length. A probe compares
// stored hashes, not keys, until one matches, so a chain of eight costs
// eight integer compares, while the bucket arrays stay small enough that a
// server holding a few hundred winners does not pay kilobytes of empty
// buckets.
const loadFactor = 8

// blockLen is the number of entries one arena allocation holds.
const blockLen = 8

// Table maps keys to immutable values. Readers take no lock: a probe is an
// atomic pointer load plus a short walk, and the publishing CAS gives the
// reader a happens-before edge to the entry's fields. The zero Table is
// unusable; call Init first.
type Table[K comparable, V any] struct {
	capacity  int64 // entries per generation
	buckets   int   // bucket-array length per generation, a power of two
	cur, prev atomic.Pointer[generation[K, V]]
	rotations atomic.Int64
}

// generation is allocated on the first store after the table starts or
// rotates, so a table never stored to costs nothing beyond its header. Its
// entries come from an arena of blocks that dies with it, so claimed
// entries stay address-stable for the chains.
type generation[K comparable, V any] struct {
	n       atomic.Int64
	buckets []atomic.Pointer[entry[K, V]]
	blk     atomic.Pointer[block[K, V]]
}

type block[K comparable, V any] struct {
	used atomic.Int64
	e    [blockLen]entry[K, V]
}

type entry[K comparable, V any] struct {
	hash uint64
	key  K
	val  V
	next *entry[K, V]
}

// Init sizes an unused table to hold at most capacity entries per
// generation (values below 1 mean 1), so at most 2×capacity in all.
func (t *Table[K, V]) Init(capacity int) {
	t.capacity = int64(max(capacity, 1))
	t.buckets = 1
	for t.buckets*loadFactor < capacity {
		t.buckets *= 2
	}
}

// Get returns the value stored under k, whose hash is h, or nil. The
// pointee is shared and must not be modified.
func (t *Table[K, V]) Get(h uint64, k *K) *V {
	for _, g := range [2]*generation[K, V]{t.cur.Load(), t.prev.Load()} {
		if g == nil {
			return nil
		}
		for e := g.buckets[h&uint64(len(g.buckets)-1)].Load(); e != nil; e = e.next {
			if e.hash == h && e.key == *k {
				return &e.val
			}
		}
	}
	return nil
}

// Put stores a copy of v under k, whose hash is h, rotating first when the
// current generation is full. A key a racer has already stored in the
// current generation is skipped.
func (t *Table[K, V]) Put(h uint64, k *K, v *V) {
	g := t.cur.Load()
	if g == nil {
		g = t.rotate(nil)
	}
	// Reserve a slot before publishing, so no generation ever holds more
	// than capacity entries, even under concurrent stores.
	for {
		n := g.n.Load()
		if n >= t.capacity {
			g = t.rotate(g)
		} else if g.n.CompareAndSwap(n, n+1) {
			break
		}
	}
	e := g.alloc()
	e.hash, e.key, e.val = h, *k, *v
	b := &g.buckets[h&uint64(len(g.buckets)-1)]
	for {
		head := b.Load()
		for d := head; d != nil; d = d.next {
			if d.hash == h && d.key == *k {
				g.n.Add(-1) // e's slot is abandoned: blocks are not a free list
				return
			}
		}
		e.next = head
		if b.CompareAndSwap(head, e) {
			return
		}
	}
}

// alloc claims one entry slot from the generation's current block,
// starting a new block when it is exhausted.
func (g *generation[K, V]) alloc() *entry[K, V] {
	for {
		b := g.blk.Load()
		if b != nil {
			if i := b.used.Add(1) - 1; i < blockLen {
				return &b.e[i]
			}
		}
		g.blk.CompareAndSwap(b, &block[K, V]{})
	}
}

// rotate replaces the current generation old (nil before the first store)
// with a fresh one, demoting old to previous, and returns whichever
// generation is current afterwards: of several racing rotators one wins
// and the others adopt its generation.
func (t *Table[K, V]) rotate(old *generation[K, V]) *generation[K, V] {
	fresh := &generation[K, V]{buckets: make([]atomic.Pointer[entry[K, V]], t.buckets)}
	if !t.cur.CompareAndSwap(old, fresh) {
		return t.cur.Load()
	}
	if old != nil {
		t.prev.Store(old)
		t.rotations.Add(1)
	}
	return fresh
}

// Stats is a point-in-time snapshot of a table's size: the entries both
// generations hold, the most they can hold, and how many times a full
// generation was demoted.
type Stats struct {
	Entries, Capacity int
	Rotations         int64
}

// Stats snapshots the table's size.
func (t *Table[K, V]) Stats() Stats {
	st := Stats{Capacity: int(2 * t.capacity), Rotations: t.rotations.Load()}
	for _, g := range [2]*generation[K, V]{t.cur.Load(), t.prev.Load()} {
		if g != nil {
			st.Entries += int(g.n.Load())
		}
	}
	return st
}

// LongestChain returns the most entries one probe of one generation can
// visit: the walk a miss pays, twice over.
func (t *Table[K, V]) LongestChain() int {
	longest := 0
	for _, g := range [2]*generation[K, V]{t.cur.Load(), t.prev.Load()} {
		for i := 0; g != nil && i < len(g.buckets); i++ {
			n := 0
			for e := g.buckets[i].Load(); e != nil; e = e.next {
				n++
			}
			longest = max(longest, n)
		}
	}
	return longest
}
