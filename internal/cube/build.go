package cube

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"statcube/internal/budget"
	"statcube/internal/fault"
	"statcube/internal/obs"
	"statcube/internal/parallel"
	"statcube/internal/qlog"
)

// This file implements full-cube construction — every view of the lattice
// — three ways, reproducing the Section 6.6 ROLAP/MOLAP comparison:
//
//   - ROLAPNaive: one hash group-by over the base table per view, the
//     pre-[GB+96] "group-by per subset, union them" plan;
//   - ROLAPSmallestParent: each view computed from its smallest already
//     computed ancestor, the standard relational cube optimization;
//   - MOLAP: the base data loaded into a dense linearized array, each view
//     aggregated from its smallest parent array with pure index
//     arithmetic — the array-based simultaneous aggregation of [ZDN97].
//
// Inputs are dictionary-coded: each row is one int code per dimension plus
// a measure value. All three produce identical Views.

// Input is a coded fact table.
type Input struct {
	Card []int   // per-dimension cardinality
	Rows [][]int // coded dimension values, one slice per row
	Vals []float64
}

// Validate checks coding invariants. Builders compute all 2^n views, so
// the dimensionality is capped well before that blows up.
func (in *Input) Validate() error {
	if len(in.Card) > 16 {
		return fmt.Errorf("cube: %d dimensions means 2^%d views; refusing", len(in.Card), len(in.Card))
	}
	if len(in.Rows) != len(in.Vals) {
		return fmt.Errorf("cube: %d rows, %d values", len(in.Rows), len(in.Vals))
	}
	for ri, row := range in.Rows {
		if len(row) != len(in.Card) {
			return fmt.Errorf("cube: row %d has %d dims, want %d", ri, len(row), len(in.Card))
		}
		for d, c := range row {
			if c < 0 || c >= in.Card[d] {
				return fmt.Errorf("cube: row %d dim %d code %d out of [0,%d)", ri, d, c, in.Card[d])
			}
		}
	}
	return nil
}

// Views holds every computed view: per mask, a map from the view's
// linearized group key to the aggregated sum.
type Views struct {
	Card   []int
	ByMask []map[uint64]float64
}

// maskDims lists the dimensions participating in a mask.
func maskDims(mask, n int) []int {
	dims := make([]int, 0, bits.OnesCount(uint(mask)))
	for d := 0; d < n; d++ {
		if mask&(1<<uint(d)) != 0 {
			dims = append(dims, d)
		}
	}
	return dims
}

// groupKey linearizes the masked coordinates of a row.
func groupKey(row []int, dims []int, card []int) uint64 {
	var k uint64
	for _, d := range dims {
		k = k*uint64(card[d]) + uint64(row[d])
	}
	return k
}

// View returns one view's map (nil if out of range).
func (v *Views) View(mask int) map[uint64]float64 {
	if mask < 0 || mask >= len(v.ByMask) {
		return nil
	}
	return v.ByMask[mask]
}

// Equal compares two full cubes within a small tolerance.
func (v *Views) Equal(o *Views) bool {
	if len(v.ByMask) != len(o.ByMask) {
		return false
	}
	for mask := range v.ByMask {
		a, b := v.ByMask[mask], o.ByMask[mask]
		if len(a) != len(b) {
			return false
		}
		for k, av := range a {
			bv, ok := b[k]
			if !ok {
				return false
			}
			diff := av - bv
			if diff < 0 {
				diff = -diff
			}
			limit := 1e-9
			if av > 1 || av < -1 {
				l := av
				if l < 0 {
					l = -l
				}
				limit *= l
			}
			if diff > limit {
				return false
			}
		}
	}
	return true
}

// Options configure a cube build. The zero value is the auto-tuned
// default: fan out across GOMAXPROCS when the input is large enough,
// stay sequential otherwise. Whatever the settings, the produced Views
// are byte-identical — parallelism never changes a single bit of output.
type Options struct {
	// Workers caps the fan-out: 0 means GOMAXPROCS, 1 forces the
	// sequential path.
	Workers int
	// Span, when non-nil, receives one child span per build stage,
	// rendering the parallel-vs-sequential split in EXPLAIN output.
	Span *obs.Span
}

// parMinRows is the input-row threshold below which the builders stay
// sequential (tests lower it to drive the parallel path on small inputs).
var parMinRows = parallel.MinWork

// stage resolves build options into a fan-out stage: below the row
// threshold the stage is pinned to one worker, which makes every ForEach
// on it run inline. The build context rides on the stage, so every view
// fan-out checks it between tasks.
func (o Options) stage(ctx context.Context, name string, rows int) parallel.Stage {
	st := parallel.Stage{Name: name, Workers: o.Workers, Span: o.Span, Ctx: ctx}
	if rows < parMinRows {
		st.Workers = 1
	}
	return st
}

// rolapEntryBytes is the budget charge per ROLAP view-map entry: an 8-byte
// key, an 8-byte float sum, and the amortized Go map overhead (buckets,
// top-hash bytes, load factor headroom).
const rolapEntryBytes = 48

// accountant tracks one build's reservations against the context's
// governor so they can be charged view by view (concurrently — the
// governor is atomic) and released wholesale when the build hands its
// result off or aborts.
type accountant struct {
	gov      *budget.Governor
	reserved atomic.Int64
	cells    atomic.Int64
}

func newAccountant(ctx context.Context) *accountant {
	return &accountant{gov: budget.From(ctx)}
}

// chargeView reserves the working memory of one finished view and charges
// its entries against the cell quota.
func (a *accountant) chargeView(entries int, entryBytes int64) error {
	if a.gov == nil {
		return nil
	}
	if err := a.gov.AddCells(int64(entries)); err != nil {
		return err
	}
	b := int64(entries) * entryBytes
	if err := a.gov.Reserve(b); err != nil {
		return err
	}
	a.reserved.Add(b)
	a.cells.Add(int64(entries))
	return nil
}

// reserve claims raw bytes (the MOLAP dense-array estimate).
func (a *accountant) reserve(b int64) error {
	if a.gov == nil {
		return nil
	}
	if err := a.gov.Reserve(b); err != nil {
		return err
	}
	a.reserved.Add(b)
	return nil
}

// close releases everything the build reserved; the result's footprint is
// the caller's to govern from here.
func (a *accountant) close() {
	if a.gov != nil {
		a.gov.Release(a.reserved.Swap(0))
	}
}

// Identical reports whether two cubes are exactly equal: same keys, with
// bit-identical float values. The parallel builders guarantee this against
// their sequential counterparts.
func (v *Views) Identical(o *Views) bool {
	if len(v.ByMask) != len(o.ByMask) {
		return false
	}
	for mask := range v.ByMask {
		a, b := v.ByMask[mask], o.ByMask[mask]
		if len(a) != len(b) {
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

// BuildROLAPNaive computes every view with an independent hash group-by
// over the base rows: 2^n full scans.
func BuildROLAPNaive(in *Input) (*Views, error) {
	return BuildROLAPNaiveCtx(context.Background(), in, Options{})
}

// BuildROLAPNaiveWith is BuildROLAPNaive with explicit build options.
func BuildROLAPNaiveWith(in *Input, opt Options) (*Views, error) {
	return BuildROLAPNaiveCtx(context.Background(), in, opt)
}

// BuildROLAPNaiveCtx is BuildROLAPNaive with a context and build options:
// the 2^n group-bys are independent, so views fan out one task per mask;
// each task scans the rows in order into its own map, making the parallel
// result trivially byte-identical to the sequential one. Cancellation is
// checked between views and between row segments inside each scan, and a
// governor on ctx is charged per finished view map; on any failure the
// build returns the typed error and no Views. An enabled flight recorder
// logs the build's wall time, ledger peaks and typed outcome.
func BuildROLAPNaiveCtx(ctx context.Context, in *Input, opt Options) (*Views, error) {
	start := qlog.Start()
	v, err := buildROLAPNaiveCtx(ctx, in, opt)
	recordBuildFlight(ctx, "rolap_naive", start, in, opt, false, err)
	return v, err
}

func buildROLAPNaiveCtx(ctx context.Context, in *Input, opt Options) (*Views, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Card)
	nviews := 1 << uint(n)
	out := &Views{Card: append([]int(nil), in.Card...), ByMask: make([]map[uint64]float64, nviews)}
	st := opt.stage(ctx, "cube.rolap_naive", len(in.Rows))
	acct := newAccountant(ctx)
	defer acct.close()
	inj := fault.From(ctx)
	err := st.ForEach(nviews, func(mask int) error {
		// Each view scan is a cube.view fault hook: chaos tests fail or
		// panic a single view's computation and assert the whole build
		// unwinds cleanly.
		if err := inj.Hit(fault.PointCubeView); err != nil {
			return err
		}
		m, err := groupBy(ctx, in, maskDims(mask, n))
		if err != nil {
			return err
		}
		if err := acct.chargeView(len(m), rolapEntryBytes); err != nil {
			return err
		}
		out.ByMask[mask] = m
		return nil
	})
	if err != nil {
		recordBuildAbort(err)
		return nil, err
	}
	return out, nil
}

// BuildROLAPSmallestParent computes the base view from the rows, then each
// remaining view from its smallest already-computed parent, walking the
// lattice base-first. Aggregating from a (usually much smaller) parent is
// the standard relational cube optimization.
func BuildROLAPSmallestParent(in *Input) (*Views, error) {
	return BuildROLAPSmallestParentCtx(context.Background(), in, Options{})
}

// BuildROLAPSmallestParentWith is BuildROLAPSmallestParent with explicit
// build options.
func BuildROLAPSmallestParentWith(in *Input, opt Options) (*Views, error) {
	return BuildROLAPSmallestParentCtx(context.Background(), in, opt)
}

// BuildROLAPSmallestParentCtx is BuildROLAPSmallestParent with a context
// and build options. The base group-by folds the rows in order; the
// lattice walk then proceeds one popcount level at a time, computing every
// view of a level concurrently. Parent choices for a level are resolved
// sequentially before the fan-out, and each chosen parent's keys are
// sorted once there — views of equal popcount can never derive from each
// other, so the choices match the sequential walk exactly and the
// concurrent tasks only read finished parent views and their shared key
// order. Cancellation is checked between levels and between row
// segments, bounding latency; a governor on ctx is charged one map-entry
// reservation per finished view. An enabled flight recorder logs the
// build's wall time, ledger peaks and typed outcome.
func BuildROLAPSmallestParentCtx(ctx context.Context, in *Input, opt Options) (*Views, error) {
	start := qlog.Start()
	v, err := buildROLAPSmallestParentCtx(ctx, in, opt)
	recordBuildFlight(ctx, "rolap_sp", start, in, opt, false, err)
	return v, err
}

func buildROLAPSmallestParentCtx(ctx context.Context, in *Input, opt Options) (*Views, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Card)
	nviews := 1 << uint(n)
	out := &Views{Card: append([]int(nil), in.Card...), ByMask: make([]map[uint64]float64, nviews)}
	base := nviews - 1
	st := opt.stage(ctx, "cube.rolap_sp", len(in.Rows))
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
	out.ByMask[base] = bm
	// Process masks in descending popcount so parents exist.
	order := make([]int, 0, nviews-1)
	for mask := 0; mask < nviews; mask++ {
		if mask != base {
			order = append(order, mask)
		}
	}
	sortByPopcountDesc(order)
	// sorted[p] holds parent view p's entries in ascending key order,
	// sorted once and read by every task that folds p.
	sorted := make([]sortedView, nviews)
	for lo := 0; lo < len(order); {
		if err := budget.Check(ctx); err != nil {
			recordBuildAbort(err)
			return nil, err
		}
		hi := lo
		pc := bits.OnesCount(uint(order[lo]))
		for hi < len(order) && bits.OnesCount(uint(order[hi])) == pc {
			hi++
		}
		level := order[lo:hi]
		parents := make([]int, len(level))
		for i, mask := range level {
			p := smallestComputedParent(mask, out)
			parents[i] = p
			if sorted[p].keys == nil {
				sorted[p] = sortView(out.ByMask[p])
			}
		}
		err := st.ForEach(len(level), func(i int) error {
			if err := fault.Hit(ctx, fault.PointCubeView); err != nil {
				return err
			}
			p := parents[i]
			m := aggregateFromParent(out.Card, sorted[p], p, level[i])
			if err := acct.chargeView(len(m), rolapEntryBytes); err != nil {
				return err
			}
			out.ByMask[level[i]] = m
			return nil
		})
		if err != nil {
			recordBuildAbort(err)
			return nil, err
		}
		lo = hi
	}
	return out, nil
}

// groupBy aggregates one view straight from the rows, folding them in
// row order. The fold is sequential even when the build fans out: routing
// rows to per-worker partial maps cost more than it saved at every E9
// input size, so builds parallelize across views instead. Cancellation
// aborts between row segments.
func groupBy(ctx context.Context, in *Input, dims []int) (map[uint64]float64, error) {
	// Size the map for the most groups the view can have: no more than
	// the rows, nor than the cells of its cross product.
	size := 1
	for _, d := range dims {
		c := in.Card[d]
		if c <= 0 || size > len(in.Rows)/c {
			size = len(in.Rows)
			break
		}
		size *= c
	}
	m := make(map[uint64]float64, min(size, len(in.Rows)))
	tick := budget.NewTicker(ctx, 0)
	for ri, row := range in.Rows {
		if err := tick.Tick(); err != nil {
			return nil, err
		}
		m[groupKey(row, dims, in.Card)] += in.Vals[ri]
	}
	return m, nil
}

// sortByPopcountDesc orders masks so larger (finer) views come first.
func sortByPopcountDesc(masks []int) {
	sort.Slice(masks, func(i, j int) bool {
		pa, pb := bits.OnesCount(uint(masks[i])), bits.OnesCount(uint(masks[j]))
		if pa != pb {
			return pa > pb
		}
		return masks[i] < masks[j]
	})
}

// smallestComputedParent finds the computed superset view with the fewest
// entries.
func smallestComputedParent(mask int, v *Views) int {
	best, bestLen := -1, 0
	for parent := range v.ByMask {
		if parent == mask || v.ByMask[parent] == nil || !DerivableFrom(mask, parent) {
			continue
		}
		if best < 0 || len(v.ByMask[parent]) < bestLen {
			best, bestLen = parent, len(v.ByMask[parent])
		}
	}
	if best < 0 {
		panic("cube: no computed parent; traversal order broken")
	}
	return best
}

// sortedView is a view's entries in ascending key order.
type sortedView struct {
	keys []uint64
	vals []float64
}

func sortView(view map[uint64]float64) sortedView {
	keys := make([]uint64, 0, len(view))
	for k := range view {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = view[k]
	}
	return sortedView{keys, vals}
}

// aggregateFromParent rolls a parent view's entries up into the child
// view, decoding the parent keys and re-keying onto the child's dims.
// Parent entries are visited in ascending key order, so each child key
// accumulates its float sum in one fixed order — the determinism the
// byte-identical parallel/sequential guarantee rests on (map iteration
// order would reshuffle the additions run to run).
func aggregateFromParent(card []int, pv sortedView, parent, child int) map[uint64]float64 {
	n := len(card)
	pd := maskDims(parent, n)
	cd := maskDims(child, n)
	// Child dims positions within the parent's dim list.
	pos := make([]int, len(cd))
	for i, d := range cd {
		pos[i] = -1
		for j, p := range pd {
			if p == d {
				pos[i] = j
				break
			}
		}
		if pos[i] < 0 {
			panic("cube: child dim missing from parent")
		}
	}
	out := make(map[uint64]float64, len(pv.keys)/2+1)
	coords := make([]int, len(pd))
	for ki, k := range pv.keys {
		// Decode the parent key (row-major over pd).
		kk := k
		for i := len(pd) - 1; i >= 0; i-- {
			c := uint64(card[pd[i]])
			coords[i] = int(kk % c)
			kk /= c
		}
		var ck uint64
		for i, d := range cd {
			ck = ck*uint64(card[d]) + uint64(coords[pos[i]])
		}
		out[ck] += pv.vals[ki]
	}
	return out
}
