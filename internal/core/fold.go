package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"statcube/internal/budget"
	"statcube/internal/hierarchy"
	"statcube/internal/obs"
	"statcube/internal/schema"
)

// This file answers automatic aggregation (auto.go) in one pass over the
// base cells. In [S82] a concise query is one summarization of the base
// object: an unmentioned dimension is summed away, and a condition at a
// non-leaf level sums the descendants of the chosen values. So the query
// compiles to a fold plan — the output schema plus, for each source
// dimension, a table from leaf ordinal to output ordinal (the grouping
// table the Data Cube paper computes a group-by from in one pass) — and
// the fold adds every kept cell into its output cell by position
// arithmetic, the linearization of Section 6.2.
//
// Cells are merged in ascending linearized source-key order whichever
// access path runs, so that order is the float reference of a query
// (DESIGN.md, "Float determinism"). When the cross product of the allowed
// leaf ordinals is at most the number of stored cells, the fold walks it
// odometer-style and probes the store; otherwise it filters the store's
// ForEach, which visits cells in the same order. A probe, hit or miss,
// costs about what ForEach spends per stored cell (a map step and a
// lookup), so the walk wins when it probes fewer coordinates.

// Access paths of a fold; foldPath pins one (tests force each in turn).
const (
	pathAuto = iota
	pathWalk
	pathFilter
)

var foldPath = pathAuto

// foldDim is one source dimension's part of a fold plan.
type foldDim struct {
	// to maps a leaf ordinal to its output ordinal; -1 drops the cell.
	to []int
	// out is the dimension's index in the output schema, or -1 when it
	// has no output coordinate (summarized away or collapsed).
	out int
	// allowed lists the leaf ordinals whose to entry is not -1, ascending.
	allowed []int
}

// foldPlan is a compiled automatic aggregation.
type foldPlan struct {
	sch  *schema.Graph // output schema
	dims []foldDim     // per source dimension, in schema order
	// For EXPLAIN, in schema order: dimensions picked at the leaf level,
	// picked at an upper level, and left without an output coordinate.
	selected, rolledUp, dropped []string
}

// compileFold turns q into a fold plan, running the checks of the
// equivalent operator chain in its order: per mentioned dimension in
// sorted order S-select (leaf level) or S-select-level plus S-aggregate
// (upper level), then S-project of the unmentioned dimensions, then the
// collapse of WhereOnly dimensions. Each check fails with the error its
// operator returns. Output ordinals and value order come from the same
// Restrict/Truncate calls the operators make.
func (o *StatObject) compileFold(ctx context.Context, q AutoQuery) (*foldPlan, error) {
	src := o.sch.Dimensions()
	p := &foldPlan{dims: make([]foldDim, len(src))}
	classes := make([]*hierarchy.Classification, len(src)) // output classification; nil: no coordinate
	levels := make([]int, len(src))                        // picked level; -1: unmentioned
	for i := range levels {
		levels[i] = -1
	}
	mentioned := make([]string, 0, len(q.Where))
	for dim := range q.Where {
		mentioned = append(mentioned, dim)
	}
	sort.Strings(mentioned)
	for _, dim := range mentioned {
		pick := q.Where[dim]
		d, err := o.sch.Dimension(dim)
		if err != nil {
			return nil, err
		}
		level := pick.Level
		if level == "" {
			level = d.Class.LeafLevel().Name
		}
		li, err := d.Class.LevelIndex(level)
		if err != nil {
			return nil, err
		}
		if len(pick.Values) == 0 {
			return nil, fmt.Errorf("core: empty condition for dimension %q", dim)
		}
		if err := budget.Check(ctx); err != nil {
			return nil, err
		}
		di, _ := o.sch.DimIndex(dim)
		p.dims[di].to, classes[di], err = o.pickTable(d, li, level, pick.Values)
		if err != nil {
			return nil, err
		}
		levels[di] = li
	}
	// S-project: summarize over every unmentioned dimension.
	for i, d := range src {
		if levels[i] >= 0 {
			continue
		}
		if err := budget.Check(ctx); err != nil {
			return nil, err
		}
		if err := o.checkAdditiveDim(d); err != nil {
			return nil, err
		}
		p.dims[i].to = make([]int, d.Cardinality()) // every leaf kept
	}
	// Collapse WhereOnly dimensions in sorted order, keeping the last one
	// left: one picked value is sliced away (no summarizability question),
	// several are summed over subject to additivity.
	left := len(mentioned)
	for _, dim := range mentioned {
		pick := q.Where[dim]
		if !pick.WhereOnly {
			continue
		}
		if left <= 1 {
			break
		}
		di, _ := o.sch.DimIndex(dim)
		if len(pick.Values) > 1 {
			if err := o.checkAdditiveDim(src[di]); err != nil {
				return nil, err
			}
		}
		classes[di] = nil
		left--
	}
	var outDims []schema.Dimension
	for i, d := range src {
		fd := &p.dims[i]
		fd.out = -1
		if classes[i] != nil {
			fd.out = len(outDims)
			outDims = append(outDims, schema.Dimension{Name: d.Name, Class: classes[i], Temporal: d.Temporal})
		} else {
			p.dropped = append(p.dropped, d.Name)
		}
		switch {
		case levels[i] == 0:
			p.selected = append(p.selected, d.Name)
		case levels[i] > 0:
			p.rolledUp = append(p.rolledUp, d.Name)
		}
		for c, t := range fd.to {
			if t >= 0 {
				fd.allowed = append(fd.allowed, c)
			}
		}
	}
	sch, err := schema.New(o.sch.Name, outDims...)
	if err != nil {
		return nil, err
	}
	p.sch = sch
	return p, nil
}

// pickTable compiles one mentioned dimension: its leaf-ordinal table and
// the classification its output coordinate takes — restricted to the
// picked leaves (S-select) or to the subtrees under the picked values and
// truncated at their level (S-select-level, then S-aggregate).
func (o *StatObject) pickTable(d schema.Dimension, li int, level string, values []Value) ([]int, *hierarchy.Classification, error) {
	leaves, under := values, values // under[i]: the picked value leaves[i] descends from
	if li > 0 {
		var err error
		if leaves, under, err = subtreeLeaves(d.Class, li, level, values); err != nil {
			return nil, nil, err
		}
	}
	cls, err := d.Class.Restrict(leaves)
	if err != nil {
		return nil, nil, err
	}
	if li > 0 {
		// Both halves of the [LS97] conditions, as S-aggregate checks them
		// on the restricted classification. Strictness leaves each kept
		// leaf one ancestor at the picked level: the value it was found
		// under.
		if err := cls.CheckSummarizable(0, li); err != nil {
			recordRejection()
			return nil, nil, fmt.Errorf("%w: %v", ErrNotSummarizable, err)
		}
		if err := o.checkAdditiveDim(d); err != nil {
			return nil, nil, err
		}
	}
	to := make([]int, d.Cardinality())
	for i := range to {
		to[i] = -1
	}
	for i, leaf := range leaves {
		src, err := d.Class.ValueOrdinal(0, leaf)
		if err != nil {
			return nil, nil, err
		}
		if to[src], err = cls.ValueOrdinal(li, under[i]); err != nil {
			return nil, nil, err
		}
	}
	if li > 0 {
		if cls, err = cls.Truncate(li); err != nil {
			return nil, nil, err
		}
	}
	return to, cls, nil
}

// fold runs a compiled plan: one pass over o's cells into a new object
// whose DrillDown returns o. It records one operator, charges the
// governor on ctx for the output cells, and traces itself as a
// "scan:fold" child of sp.
func (o *StatObject) fold(ctx context.Context, p *foldPlan, sp *obs.Span) (*StatObject, error) {
	sc := sp.Child("scan:fold")
	defer sc.End()
	ms := NewMapStore(p.sch.Shape(), o.nslots)
	out := MustNew(p.sch, o.measures, WithStore(ms))
	out.origin, out.originOp = o, "auto-aggregate"
	f := folder{o: o, p: p, ms: ms}

	walk := foldPath == pathWalk
	if foldPath == pathAuto {
		limit, n := o.store.Cells(), 1
		for _, fd := range p.dims {
			if n *= len(fd.allowed); n > limit {
				break // stop before the product can overflow
			}
		}
		walk = n <= limit
	}
	path := "filter"
	var err error
	if walk {
		path = "walk"
		err = f.walk(budget.NewTicker(ctx, 0))
	} else {
		err = f.filter(budget.NewTicker(ctx, 0))
	}
	if err == nil {
		err = chargeCells(ctx, out)
	}
	sc.AddInt("cells_scanned", int64(f.scanned))
	if err != nil {
		sc.SetErr(err)
		return nil, err
	}
	sc.AddInt("groups_out", int64(out.Cells()))
	sc.SetStr("path", path)
	for _, a := range [...]struct {
		key  string
		dims []string
	}{{"selected", p.selected}, {"rolled_up", p.rolledUp}, {"dropped", p.dropped}} {
		if len(a.dims) > 0 {
			sc.SetStr(a.key, strings.Join(a.dims, ","))
		}
	}
	recordOp(f.scanned, out.Cells())
	return out, nil
}

// folder is one fold's running state.
type folder struct {
	o       *StatObject
	p       *foldPlan
	ms      *MapStore // the output store, written directly
	slab    []float64 // unused accumulator slots, carved per new group
	scanned int
}

// walk probes the cross product of the allowed ordinals odometer-style,
// last dimension fastest — ascending linearized source order.
func (f *folder) walk(tick *budget.Ticker) error {
	nd := len(f.p.dims)
	idx := make([]int, nd)
	coords := make([]int, nd)
	for j, fd := range f.p.dims {
		if len(fd.allowed) == 0 {
			return nil
		}
		coords[j] = fd.allowed[0]
	}
	// A MapStore is probed in place by its linearized key; any other
	// store copies each cell out through Get.
	ms, _ := f.o.store.(*MapStore)
	buf := make([]float64, f.o.nslots)
	for {
		if err := tick.Tick(); err != nil {
			return err
		}
		slots, ok := buf, false
		if ms != nil {
			var k uint64
			for j, c := range coords {
				k += uint64(c) * ms.strides[j]
			}
			slots, ok = ms.cells[k]
		} else {
			ok = f.o.store.Get(coords, buf)
		}
		if ok {
			f.scanned++
			f.add(coords, slots)
		}
		j := nd - 1
		for ; j >= 0; j-- {
			allowed := f.p.dims[j].allowed
			if idx[j]++; idx[j] < len(allowed) {
				coords[j] = allowed[idx[j]]
				break
			}
			idx[j], coords[j] = 0, allowed[0]
		}
		if j < 0 {
			return nil
		}
	}
}

// filter visits every stored cell through ForEach (ascending linearized
// order) and folds the ones the plan keeps.
func (f *folder) filter(tick *budget.Ticker) error {
	var err error
	f.o.store.ForEach(func(coords []int, slots []float64) bool {
		if err = tick.Tick(); err != nil {
			return false
		}
		f.scanned++
		f.add(coords, slots)
		return true
	})
	return err
}

// add folds one source cell into its output cell, unless a dimension's
// table drops it.
func (f *folder) add(coords []int, slots []float64) {
	var key uint64
	for j := range f.p.dims {
		fd := &f.p.dims[j]
		t := fd.to[coords[j]]
		if t < 0 {
			return
		}
		if fd.out >= 0 {
			key += uint64(t) * f.ms.strides[fd.out]
		}
	}
	o := f.o
	acc, ok := f.ms.cells[key]
	if !ok {
		n := o.nslots
		if len(f.slab) < n {
			// Slabs grow with the group count, so a fold allocates
			// O(log groups) times, never per cell.
			f.slab = make([]float64, n*max(64, len(f.ms.cells)))
		}
		acc, f.slab = f.slab[:n:n], f.slab[n:]
		o.identitySlots(acc)
		f.ms.cells[key] = acc
	}
	for i := range o.measures {
		m := &o.measures[i]
		lo, hi := o.offsets[i], o.offsets[i]+m.slots()
		m.merge(acc[lo:hi], slots[lo:hi])
	}
}
