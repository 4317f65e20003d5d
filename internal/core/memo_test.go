package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"scratchmem/internal/model"
	"scratchmem/internal/policy"
	"scratchmem/internal/progress"
	"scratchmem/internal/smmerr"
)

// TestInterLayerInfeasibleReportsFirstLayer: when the inter-layer DP finds
// no feasible schedule, the error names exactly the first layer whose best
// candidate does not fit — established independently here by a direct,
// memo-free sweep — and the report path answers from the DP's cached
// per-layer sweeps instead of re-estimating.
func TestInterLayerInfeasibleReportsFirstLayer(t *testing.T) {
	n, _ := model.Builtin("ResNet18")
	pl := NewPlanner(0, MinAccesses)
	pl.Cfg.GLBBytes = 256
	pl.InterLayer = true

	_, err := pl.Heterogeneous(n)
	var le *smmerr.LayerError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want a *LayerError", err)
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want an *InfeasibleError inside", err)
	}

	// The independent reference: first layer with no feasible candidate.
	ref := &Planner{Cfg: pl.Cfg, Objective: MinAccesses}
	ref.UseMemo(nil)
	first := -1
	for i := range n.Layers {
		if e := ref.bestForLayer(n, i, false, false); !e.Feasible {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("test premise broken: every layer fits in a 256-byte GLB")
	}
	if le.Index != first || le.Name != n.Layers[first].Name {
		t.Errorf("reported layer %d (%s), want first infeasible %d (%s)",
			le.Index, le.Name, first, n.Layers[first].Name)
	}

	// Re-planning on the warm memo — DP sweep plus report path — answers
	// entirely from the caches: no new misses.
	before := pl.Memo.Stats()
	if _, err := pl.Heterogeneous(n); err == nil {
		t.Fatal("second attempt unexpectedly feasible")
	}
	after := pl.Memo.Stats()
	if after.Misses != before.Misses {
		t.Errorf("failure report re-estimated: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits == before.Hits {
		t.Error("second attempt never touched the caches")
	}
}

// TestBestHomogeneousDeterministicAcrossWorkers: the observer-free
// shape-deduped path and the per-variant fan-out path, at any worker
// count, pick byte-identical plans.
func TestBestHomogeneousDeterministicAcrossWorkers(t *testing.T) {
	n, _ := model.Builtin("MobileNetV2")
	ctx := context.Background()
	var plans []*Plan
	for _, workers := range []int{1, 8} {
		for _, withProg := range []bool{false, true} {
			pl := NewPlanner(64, MinAccesses)
			pl.Workers = workers
			var prog progress.Func
			if withProg {
				prog = func(progress.Event) {}
			}
			p, err := pl.BestHomogeneousCtx(ctx, n, prog)
			if err != nil {
				t.Fatalf("workers=%d prog=%v: %v", workers, withProg, err)
			}
			plans = append(plans, p)
		}
	}
	for i := 1; i < len(plans); i++ {
		if !reflect.DeepEqual(plans[i], plans[0]) {
			t.Fatalf("plan %d diverges from plan 0 across worker/observer settings", i)
		}
	}
}

// TestBestHomogeneousProgressCells: concurrent variant passes tag their
// events with the variant's cell label and deliver them serially, so a
// lock-free observer sees a consistent stream.
func TestBestHomogeneousProgressCells(t *testing.T) {
	n, _ := model.Builtin("ResNet18")
	pl := NewPlanner(64, MinAccesses)
	pl.Workers = 8
	var mu sync.Mutex
	inObserver := false
	cells := map[string]bool{}
	prog := func(ev progress.Event) {
		mu.Lock()
		if inObserver {
			mu.Unlock()
			t.Error("observer entered concurrently")
			return
		}
		inObserver = true
		mu.Unlock()
		if ev.Cell == "" {
			t.Errorf("untagged event: %+v", ev)
		}
		cells[ev.Cell] = true
		mu.Lock()
		inObserver = false
		mu.Unlock()
	}
	if _, err := pl.BestHomogeneousCtx(context.Background(), n, prog); err != nil {
		t.Fatal(err)
	}
	if len(cells) < 2*len(planIDs) {
		t.Errorf("saw %d distinct variant cells, want %d", len(cells), 2*len(planIDs))
	}
}

// TestSharedMemoAcrossObjectives: a latency planner sharing an access
// planner's memo (the figure drivers' pattern) answers from the shared
// caches and still matches a cold latency planner exactly.
func TestSharedMemoAcrossObjectives(t *testing.T) {
	n, _ := model.Builtin("GoogLeNet")
	ctx := context.Background()
	plA := NewPlanner(128, MinAccesses)
	if _, err := plA.HeterogeneousCtx(ctx, n, nil); err != nil {
		t.Fatal(err)
	}
	plL := NewPlanner(128, MinLatency)
	plL.UseMemo(plA.Memo)
	before := plA.Memo.Stats()
	shared, err := plL.HeterogeneousCtx(ctx, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := plA.Memo.Stats()
	if after.Misses != before.Misses {
		t.Errorf("latency pass re-estimated %d sweeps despite the shared cache", after.Misses-before.Misses)
	}
	cold, err := NewPlanner(128, MinLatency).HeterogeneousCtx(ctx, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, cold) {
		t.Fatal("shared-memo latency plan diverges from a cold one")
	}
}

// TestBoundedMemoTiers plans ResNet18 through one shared, small memo at
// far more distinct GLB sizes than any tier holds, in every mode that
// touches a tier: every tier rotates, stays within its capacity, keeps its
// chains short, and every plan (or infeasibility error) equals the
// memo-free planner's.
func TestBoundedMemoTiers(t *testing.T) {
	n, _ := model.Builtin("ResNet18")
	m := policy.NewMemoCap(512) // per generation: 512 estimates, 64 winners, 16 sweep rows
	ctx := context.Background()
	plan := func(pl *Planner, hom bool) (*Plan, error) {
		if hom {
			return pl.BestHomogeneousCtx(ctx, n, nil)
		}
		return pl.HeterogeneousCtx(ctx, n, nil)
	}
	const sizes = 150
	for i := 0; i < sizes; i++ {
		kb := 8 + 3*i
		for _, mode := range []struct{ inter, hom bool }{{false, false}, {true, false}, {false, true}} {
			cached := &Planner{Cfg: policy.Default(kb), InterLayer: mode.inter, Workers: 1}
			cached.UseMemo(m)
			ref := &Planner{Cfg: policy.Default(kb), InterLayer: mode.inter, Workers: 1}
			ref.UseMemo(nil)
			got, gerr := plan(cached, mode.hom)
			want, werr := plan(ref, mode.hom)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%d kB %+v: memoized err %v, memo-free err %v", kb, mode, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d kB %+v: memoized plan differs from the memo-free plan", kb, mode)
			}
		}
	}
	for i, ts := range m.Stats().Tiers {
		if ts.Entries > ts.Capacity || ts.Capacity != 2*m.TierCapacity(i) {
			t.Errorf("%s tier: %d entries, capacity %d", ts.Tier, ts.Entries, ts.Capacity)
		}
		if ts.Rotations == 0 {
			t.Errorf("%s tier never rotated: the test did not exceed its capacity", ts.Tier)
		}
	}
	// A full generation's mean chain is 8 (memotab's load factor); the
	// unbounded tables' chains grew with every key ever stored.
	best := bestCacheFor(m)
	for tier, chain := range map[string]int{"winner": best.win.LongestChain(), "sweep": best.hom.LongestChain()} {
		if chain > 24 {
			t.Errorf("%s tier: longest chain %d, want <= 24", tier, chain)
		}
	}
}
