package cube

import (
	"context"
	"math/bits"

	"statcube/internal/budget"
	"statcube/internal/fault"
	"statcube/internal/qlog"
)

// BuildMOLAP computes the full cube the multidimensional-array way
// ([ZDN97]'s array-based algorithm, simplified to in-memory arrays): the
// base data is loaded into one dense linearized array; every other view is
// a dense array aggregated from its smallest computed parent using pure
// index arithmetic — no hashing, no key decoding. The result is converted
// to the same Views form as the ROLAP builders for comparison.
//
// The dense base array requires ∏ card cells, so this path — like real
// MOLAP systems — is the right choice when the cube is reasonably dense;
// its advantage over ROLAP hashing is exactly what the Section 6.6 debate
// (and the E9 bench) is about. That same density makes it memory-bound:
// BuildMOLAPCtx reserves the full dense-array estimate up front and
// downgrades to the smallest-parent ROLAP build when a governor refuses
// it.
func BuildMOLAP(in *Input) (*Views, error) {
	return BuildMOLAPCtx(context.Background(), in, Options{})
}

// BuildMOLAPWith is BuildMOLAP with explicit build options.
func BuildMOLAPWith(in *Input, opt Options) (*Views, error) {
	return BuildMOLAPCtx(context.Background(), in, opt)
}

// denseCellBytes is the per-cell footprint of a dense view array: an
// 8-byte float64 value plus its presence bit (stored as a bool).
const denseCellBytes = 9

// EstimateMOLAPBytes returns the working memory a full MOLAP build of the
// given cardinalities needs: every view of the lattice is a dense array of
// ∏_{d∈mask} card[d] cells, and the sum over all 2^n masks telescopes to
// ∏ (card[d]+1) cells, each denseCellBytes wide. Returns -1 on overflow —
// treat as "more than any budget".
func EstimateMOLAPBytes(card []int) int64 {
	total := int64(1)
	for _, c := range card {
		f := int64(c) + 1
		if f <= 0 || total > (1<<62)/f {
			return -1
		}
		total *= f
	}
	if total > (1<<62)/denseCellBytes {
		return -1
	}
	return total * denseCellBytes
}

// BuildMOLAPCtx is BuildMOLAP with a context and build options — the
// budget-governed entry point. Before allocating anything it reserves the
// dense-array estimate (cells × cell width summed over every view) against
// the context's governor; if the reservation is refused, the build
// degrades to BuildROLAPSmallestParentCtx — hash maps sized by the data,
// not the cross product — and records why: the cube.molap_degraded counter
// and, when a Span is attached, a "degrade:molap→rolap_sp" child carrying
// the refusal. Cancellation is checked between lattice levels and row
// segments; on cancellation the typed budget.ErrCanceled is returned and
// no Views. An enabled flight recorder logs the build — outcome
// "degraded" when the ROLAP downgrade was taken (the inner ROLAP build
// additionally logs its own flight).
func BuildMOLAPCtx(ctx context.Context, in *Input, opt Options) (*Views, error) {
	start := qlog.Start()
	v, degraded, err := buildMOLAPCtx(ctx, in, opt)
	recordBuildFlight(ctx, "molap", start, in, opt, degraded, err)
	return v, err
}

func buildMOLAPCtx(ctx context.Context, in *Input, opt Options) (*Views, bool, error) {
	if err := in.Validate(); err != nil {
		return nil, false, err
	}
	acct := newAccountant(ctx)
	defer acct.close()
	est := EstimateMOLAPBytes(in.Card)
	if est < 0 {
		est = 1 << 62 // overflow: force the reservation to decide
	}
	if acct.gov != nil {
		if err := acct.reserve(est); err != nil {
			// Degradation ladder: dense arrays refused → smallest-parent
			// ROLAP, whose maps grow with the data instead of the cross
			// product. The reason is recorded on the span so EXPLAIN
			// ANALYZE shows the downgrade, and in the metrics registry.
			recordDegrade()
			d := opt.Span.Child("degrade:molap→rolap_sp")
			d.SetStr("reason", err.Error())
			d.AddInt("estimated_bytes", est)
			d.End()
			v, err := BuildROLAPSmallestParentCtx(ctx, in, opt)
			return v, true, err
		}
	}
	n := len(in.Card)
	nviews := 1 << uint(n)
	// arrays[mask] is the dense array of the view's own shape.
	arrays := make([]*dense, nviews)
	base := nviews - 1
	arrays[base] = newDenseView(in.Card, base)
	st := opt.stage(ctx, "cube.molap", len(in.Rows))
	if err := loadDense(ctx, in, arrays[base]); err != nil {
		recordBuildAbort(err)
		return nil, false, err
	}
	order := make([]int, 0, nviews-1)
	for mask := 0; mask < nviews; mask++ {
		if mask != base {
			order = append(order, mask)
		}
	}
	sortByPopcountDesc(order)
	for lo := 0; lo < len(order); {
		if err := budget.Check(ctx); err != nil {
			recordBuildAbort(err)
			return nil, false, err
		}
		hi := lo
		pc := bits.OnesCount(uint(order[lo]))
		for hi < len(order) && bits.OnesCount(uint(order[hi])) == pc {
			hi++
		}
		level := order[lo:hi]
		parents := make([]int, len(level))
		for i, mask := range level {
			parents[i] = smallestDenseParent(mask, arrays)
		}
		err := st.ForEach(len(level), func(i int) error {
			if err := fault.Hit(ctx, fault.PointCubeView); err != nil {
				return err
			}
			arrays[level[i]] = arrays[parents[i]].rollup(level[i])
			return nil
		})
		if err != nil {
			recordBuildAbort(err)
			return nil, false, err
		}
		lo = hi
	}
	// Convert to Views for comparison; the map form is charged per view
	// against the cell quota (the dense bytes are already reserved).
	out := &Views{Card: append([]int(nil), in.Card...), ByMask: make([]map[uint64]float64, nviews)}
	err := st.ForEach(nviews, func(mask int) error {
		m := arrays[mask].toMap()
		if acct.gov != nil {
			if err := acct.gov.AddCells(int64(len(m))); err != nil {
				return err
			}
		}
		out.ByMask[mask] = m
		return nil
	})
	if err != nil {
		recordBuildAbort(err)
		return nil, false, err
	}
	return out, false, nil
}

// loadDense folds the rows into the base array in row order. Like the
// ROLAP base group-by it stays sequential; the build fans out across the
// lattice's views instead. Cancellation aborts between row segments; the
// partially-loaded array is discarded by the caller.
func loadDense(ctx context.Context, in *Input, a *dense) error {
	tick := budget.NewTicker(ctx, 0)
	for ri, row := range in.Rows {
		if err := tick.Tick(); err != nil {
			return err
		}
		a.add(row, in.Vals[ri])
	}
	return nil
}

// dense is a view-local dense array: vals indexed by the row-major
// linearization of the view's own dimensions.
type dense struct {
	mask    int
	dims    []int // participating dimensions, ascending
	card    []int // full cardinalities (all dims)
	shape   []int // extents of the participating dims
	vals    []float64
	present []bool
}

func newDenseView(card []int, mask int) *dense {
	dims := maskDims(mask, len(card))
	shape := make([]int, len(dims))
	size := 1
	for i, d := range dims {
		shape[i] = card[d]
		size *= card[d]
	}
	if len(dims) == 0 {
		size = 1
	}
	return &dense{
		mask: mask, dims: dims, card: append([]int(nil), card...),
		shape: shape, vals: make([]float64, size), present: make([]bool, size),
	}
}

// add folds a full-width coded row into the view.
func (a *dense) add(row []int, v float64) {
	pos := 0
	for i, d := range a.dims {
		pos = pos*a.shape[i] + row[d]
	}
	a.vals[pos] += v
	a.present[pos] = true
}

// rollup aggregates this array down to the child view (child ⊂ a.mask)
// with index arithmetic: one pass over the parent cells, each mapped to
// its child position by dropping the summed-out dimensions' contributions.
func (a *dense) rollup(childMask int) *dense {
	child := newDenseView(a.card, childMask)
	// Position of each child dim within the parent dim list.
	pos := make([]int, len(child.dims))
	for i, d := range child.dims {
		pos[i] = -1
		for j, p := range a.dims {
			if p == d {
				pos[i] = j
			}
		}
	}
	// coords walks the parent cells in row-major order, odometer style, so
	// no cell position is ever divided back into coordinates.
	coords := make([]int, len(a.dims))
	for p, present := range a.present {
		if present {
			cp := 0
			for i := range child.dims {
				cp = cp*child.shape[i] + coords[pos[i]]
			}
			child.vals[cp] += a.vals[p]
			child.present[cp] = true
		}
		for j := len(coords) - 1; j >= 0; j-- {
			if coords[j]++; coords[j] < a.shape[j] {
				break
			}
			coords[j] = 0
		}
	}
	return child
}

// toMap converts the dense view to the common map form keyed like the
// ROLAP builders (row-major over the view's dims).
func (a *dense) toMap() map[uint64]float64 {
	n := 0
	for _, present := range a.present {
		if present {
			n++
		}
	}
	out := make(map[uint64]float64, n)
	for p, present := range a.present {
		if present {
			out[uint64(p)] = a.vals[p]
		}
	}
	return out
}

// MolapFeasible reports whether a dense base array of the given
// cardinalities stays within maxCells — the planning check a system makes
// before choosing the MOLAP path.
func MolapFeasible(card []int, maxCells int) bool {
	size := 1
	for _, c := range card {
		size *= c
		if size > maxCells {
			return false
		}
	}
	return true
}

func smallestDenseParent(mask int, arrays []*dense) int {
	best, bestSize := -1, 0
	for parent := range arrays {
		if parent == mask || arrays[parent] == nil || !DerivableFrom(mask, parent) {
			continue
		}
		if best < 0 || len(arrays[parent].vals) < bestSize {
			best, bestSize = parent, len(arrays[parent].vals)
		}
	}
	if best < 0 {
		panic("cube: no dense parent; traversal order broken")
	}
	return best
}
