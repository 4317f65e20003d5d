package memotab

import (
	"sync"
	"testing"
)

// mix is a test hash: a multiplicative scramble of the key.
func mix(k int) uint64 {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// TestRotation: single-threaded stores rotate exactly every capacity
// entries, the table never holds more than two generations, the two
// newest generations answer, and anything older is gone.
func TestRotation(t *testing.T) {
	const capacity, n = 64, 10000
	var tab Table[int, int]
	tab.Init(capacity)
	for k := 0; k < n; k++ {
		tab.Put(mix(k), &k, &k)
		if st := tab.Stats(); st.Entries > st.Capacity {
			t.Fatalf("after %d stores: %d entries, capacity %d", k+1, st.Entries, st.Capacity)
		}
	}
	st := tab.Stats()
	if want := int64((n - 1) / capacity); st.Rotations != want {
		t.Errorf("rotations = %d, want %d", st.Rotations, want)
	}
	if st.Capacity != 2*capacity {
		t.Errorf("capacity = %d, want %d", st.Capacity, 2*capacity)
	}
	// The current generation holds the last n%capacity stores (or a full
	// generation), the previous one the capacity stores before them.
	newest := n % capacity
	if newest == 0 {
		newest = capacity
	}
	kept := newest + capacity
	for k := 0; k < n; k++ {
		v := tab.Get(mix(k), &k)
		switch {
		case k >= n-kept && (v == nil || *v != k):
			t.Fatalf("key %d of the two newest generations: got %v", k, v)
		case k < n-kept && v != nil:
			t.Fatalf("key %d two rotations old still answers", k)
		}
	}
	if c := tab.LongestChain(); c > capacity/loadFactor*4 {
		t.Errorf("longest chain %d, want <= %d", c, capacity/loadFactor*4)
	}
}

// TestHashCollision: keys sharing a hash stay distinct, and storing an
// existing key again neither duplicates it nor counts it twice.
func TestHashCollision(t *testing.T) {
	var tab Table[int, string]
	tab.Init(16)
	for k, v := range []string{"a", "b", "c"} {
		tab.Put(7, &k, &v)
	}
	again, dup := 1, "b"
	tab.Put(7, &again, &dup)
	for k, want := range []string{"a", "b", "c"} {
		if v := tab.Get(7, &k); v == nil || *v != want {
			t.Fatalf("key %d: got %v, want %q", k, v, want)
		}
	}
	if st := tab.Stats(); st.Entries != 3 || tab.LongestChain() != 3 {
		t.Errorf("stats %+v, longest chain %d: want 3 entries in one chain", st, tab.LongestChain())
	}
}

// TestUnusedTableAllocatesNothing: probing a table that was never stored
// to allocates nothing, not even its first bucket array.
func TestUnusedTableAllocatesNothing(t *testing.T) {
	var tab Table[int, int]
	tab.Init(1 << 15)
	k := 1
	if n := testing.AllocsPerRun(100, func() { _ = tab.Get(mix(k), &k) }); n != 0 {
		t.Errorf("Get on an unused table allocates %.1f objects/op", n)
	}
	if st := tab.Stats(); st.Entries != 0 || st.Rotations != 0 || tab.LongestChain() != 0 {
		t.Errorf("unused table: stats %+v, longest chain %d", st, tab.LongestChain())
	}
}

// TestConcurrentRotation hammers one small table from many goroutines
// across many rotations (run under -race): every hit returns the value
// stored under its key, and no generation overfills.
func TestConcurrentRotation(t *testing.T) {
	const capacity, keys, workers, rounds = 32, 500, 8, 4000
	var tab Table[int, [4]int]
	tab.Init(capacity)
	val := func(k int) [4]int { return [4]int{k, k * 3, k ^ 0x55, -k} }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i*7 + w*131) % keys
				h := mix(k)
				if v := tab.Get(h, &k); v != nil {
					if *v != val(k) {
						t.Errorf("key %d: hit returned %v, want %v", k, *v, val(k))
						return
					}
					continue
				}
				v := val(k)
				tab.Put(h, &k, &v)
				if st := tab.Stats(); st.Entries > st.Capacity {
					t.Errorf("%d entries over capacity %d", st.Entries, st.Capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := tab.Stats(); st.Rotations < 10 {
		t.Errorf("only %d rotations: the test did not exercise rotation", st.Rotations)
	}
}
