package cube

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"statcube/internal/budget"
	"statcube/internal/fault"
	"statcube/internal/qlog"
)

// MaterializedSet is a set of actually-computed views with the lattice's
// cost model made operational: a group-by query is answered from its
// smallest materialized ancestor, charging the ancestor's entry count as
// the scan cost — exactly the linear cost model [HUR96] analyze. The base
// cuboid is always materialized.
type MaterializedSet struct {
	card  []int
	views map[int]map[uint64]float64
	base  int
	// scanCost is atomic so a published, immutable set can serve Answer
	// to any number of concurrent readers (the MVCC read path) — the
	// views themselves are never written after construction.
	scanCost atomic.Int64
}

// Materialize computes the base cuboid plus the requested view masks from
// the input.
func Materialize(in *Input, masks []int) (*MaterializedSet, error) {
	return MaterializeCtx(context.Background(), in, masks)
}

// MaterializeCtx is Materialize with a context: cancellation is checked
// between the base scan's row segments and between views, and a governor
// on ctx is charged per materialized view. On any failure the set under
// construction is discarded whole — callers never see (or register) a
// partially-materialized set. An enabled flight recorder logs the
// materialization like the full-cube builders.
func MaterializeCtx(ctx context.Context, in *Input, masks []int) (*MaterializedSet, error) {
	start := qlog.Start()
	m, err := materializeCtx(ctx, in, masks)
	recordBuildFlight(ctx, "materialize", start, in, Options{}, false, err)
	return m, err
}

func materializeCtx(ctx context.Context, in *Input, masks []int) (*MaterializedSet, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Card)
	base := 1<<uint(n) - 1
	m := &MaterializedSet{
		card:  append([]int(nil), in.Card...),
		views: map[int]map[uint64]float64{},
		base:  base,
	}
	acct := newAccountant(ctx)
	defer acct.close()
	bm, err := groupBy(ctx, in, maskDims(base, n))
	if err != nil {
		recordBuildAbort(err)
		return nil, err
	}
	if err := acct.chargeView(len(bm), rolapEntryBytes); err != nil {
		recordBuildAbort(err)
		return nil, err
	}
	m.views[base] = bm
	// Compute requested views from their smallest already-computed parent,
	// coarsest requests last so finer requested views can serve them.
	sorted := append([]int(nil), masks...)
	sort.Slice(sorted, func(a, b int) bool { return PopCount(sorted[a]) > PopCount(sorted[b]) })
	for _, mask := range sorted {
		if err := budget.Check(ctx); err != nil {
			recordBuildAbort(err)
			return nil, err
		}
		if err := fault.Hit(ctx, fault.PointCubeView); err != nil {
			recordBuildAbort(err)
			return nil, err
		}
		if mask < 0 || mask > base {
			return nil, fmt.Errorf("cube: view mask %d out of range", mask)
		}
		if _, done := m.views[mask]; done {
			continue
		}
		parent := m.smallestParent(mask)
		view := m.aggregate(parent, mask)
		if err := acct.chargeView(len(view), rolapEntryBytes); err != nil {
			recordBuildAbort(err)
			return nil, err
		}
		m.views[mask] = view
	}
	return m, nil
}

// smallestParent finds the materialized superset view with fewest entries.
func (m *MaterializedSet) smallestParent(mask int) int {
	best, bestLen := -1, 0
	for parent, view := range m.views {
		if parent != mask && DerivableFrom(mask, parent) {
			if best < 0 || len(view) < bestLen {
				best, bestLen = parent, len(view)
			}
		}
	}
	if best < 0 {
		panic("cube: base cuboid missing")
	}
	return best
}

// aggregate rolls the parent view's entries into the child view.
func (m *MaterializedSet) aggregate(parent, child int) map[uint64]float64 {
	return aggregateFromParent(m.card, sortView(m.views[parent]), parent, child)
}

// Answer computes the group-by for mask, materialized or not, from the
// smallest materialized ancestor. It returns the result and the rows
// scanned (the ancestor's entry count; zero when the view itself is
// materialized — a stored view answers by lookup).
func (m *MaterializedSet) Answer(mask int) (map[uint64]float64, int64, error) {
	if mask < 0 || mask > m.base {
		return nil, 0, fmt.Errorf("cube: view mask %d out of range", mask)
	}
	if view, ok := m.views[mask]; ok {
		recordAnswer(true, 0)
		return view, 0, nil
	}
	parent := m.smallestParent(mask)
	cost := int64(len(m.views[parent]))
	m.scanCost.Add(cost)
	recordAnswer(false, cost)
	return m.aggregate(parent, mask), cost, nil
}

// ScanCost returns the cumulative rows scanned by Answer calls.
func (m *MaterializedSet) ScanCost() int64 { return m.scanCost.Load() }

// MaterializedMasks returns the stored view masks, sorted.
func (m *MaterializedSet) MaterializedMasks() []int {
	out := make([]int, 0, len(m.views))
	for mask := range m.views {
		out = append(out, mask)
	}
	sort.Ints(out)
	return out
}

// StorageEntries returns the total stored entries beyond the base cuboid —
// the "space" of the space/time trade-off.
func (m *MaterializedSet) StorageEntries() int64 {
	var t int64
	for mask, view := range m.views {
		if mask != m.base {
			t += int64(len(view))
		}
	}
	return t
}

// AppendRows folds a batch of new facts into the base cuboid AND every
// materialized view incrementally — the bulk-update discipline of
// Roussopoulos et al.'s Cubetree [RKR97] (Section 6.5): summaries are
// additive, so a delta per view replaces recomputing the views from
// scratch. It returns the number of view entries touched (the update
// cost a full rematerialization is compared against).
func (m *MaterializedSet) AppendRows(rows [][]int, vals []float64) (int64, error) {
	return m.AppendRowsCtx(context.Background(), rows, vals)
}

// AppendRowsCtx is AppendRows with a context: cancellation and budget
// are checked between views, and the context's fault injector fires at
// the writer.delta hook before each view's fold. Views are folded in
// ascending mask order, so a fault schedule replays the same per-view
// decision sequence on every run. On any failure the set is left
// PARTIALLY updated — some views folded, some not — so the caller must
// discard it whole; internal/writer stages the fold on a private clone
// and publishes only complete ones, which is how a partial delta is
// never reader-visible.
func (m *MaterializedSet) AppendRowsCtx(ctx context.Context, rows [][]int, vals []float64) (int64, error) {
	if len(rows) != len(vals) {
		return 0, fmt.Errorf("cube: %d rows, %d values", len(rows), len(vals))
	}
	n := len(m.card)
	for ri, row := range rows {
		if len(row) != n {
			return 0, fmt.Errorf("cube: row %d has %d dims, want %d", ri, len(row), n)
		}
		for d, c := range row {
			if c < 0 || c >= m.card[d] {
				return 0, fmt.Errorf("cube: row %d dim %d code %d out of [0,%d)", ri, d, c, m.card[d])
			}
		}
	}
	inj := fault.From(ctx)
	gov := budget.From(ctx)
	var touched int64
	for _, mask := range m.MaterializedMasks() {
		if err := budget.Check(ctx); err != nil {
			return touched, err
		}
		// Delta maintenance produces cells like any build: charge the
		// governor one cell per folded row per view, so a quota bounds
		// write amplification the same way it bounds query output.
		if err := gov.AddCells(int64(len(rows))); err != nil {
			return touched, err
		}
		if err := inj.Hit(fault.PointWriterDelta); err != nil {
			return touched, err
		}
		view := m.views[mask]
		dims := maskDims(mask, n)
		for ri, row := range rows {
			view[groupKey(row, dims, m.card)] += vals[ri]
			touched++
		}
	}
	return touched, nil
}

// Clone returns a deep copy of the set: fresh view maps, zero scan-cost
// accounting. The write path stages each load on a clone of the
// published generation, so readers of the original never observe a
// half-applied delta — copy-on-load MVCC without persistent structures.
// The copy moves O(entries) bytes but recomputes nothing: no fact-table
// scan, no aggregation.
func (m *MaterializedSet) Clone() *MaterializedSet {
	c := &MaterializedSet{
		card:  append([]int(nil), m.card...),
		views: make(map[int]map[uint64]float64, len(m.views)),
		base:  m.base,
	}
	for mask, view := range m.views {
		nv := make(map[uint64]float64, len(view))
		for k, v := range view {
			nv[k] = v
		}
		c.views[mask] = nv
	}
	return c
}

// Entries returns the total stored entries across every materialized
// view — the footprint a clone copies and a budget governor charges.
func (m *MaterializedSet) Entries() int64 {
	var t int64
	for _, view := range m.views {
		t += int64(len(view))
	}
	return t
}

// Card returns the per-dimension cardinalities (a copy).
func (m *MaterializedSet) Card() []int { return append([]int(nil), m.card...) }

// Identical reports exact equality: same materialized masks, same keys,
// bit-identical float values. The write path's chaos suite uses it to
// assert that a recovered, retried load converges to the same bytes a
// fault-free load produces.
func (m *MaterializedSet) Identical(o *MaterializedSet) bool {
	if len(m.views) != len(o.views) {
		return false
	}
	for mask, a := range m.views {
		b, ok := o.views[mask]
		if !ok || len(a) != len(b) {
			return false
		}
		for k, av := range a {
			bv, ok := b[k]
			if !ok || math.Float64bits(av) != math.Float64bits(bv) {
				return false
			}
		}
	}
	return true
}
