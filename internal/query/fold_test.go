package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"statcube/internal/budget"
	"statcube/internal/core"
	"statcube/internal/hierarchy"
	"statcube/internal/schema"
	"statcube/internal/workload"
)

// This file checks that a query answered by one fold over the base cells
// (core.AutoAggregateCtx) equals the explicit operator chain automatic
// aggregation stands for: per mentioned dimension in sorted order
// S-select, or S-select-level then S-aggregate; S-project of the
// unmentioned dimensions; then the WHERE-only collapse by Slice or
// S-project. Inputs hold integer-valued measures, so every summation
// order gives the same bits and the comparison is exact.

// chainEval evaluates q with the public S-operators in the chain's order.
func chainEval(o *core.StatObject, q *Query) (*core.StatObject, error) {
	if _, err := o.Measure(q.Measure); err != nil {
		return nil, err
	}
	auto, err := resolveQuery(o, q)
	if err != nil {
		return nil, err
	}
	if len(auto.Where) == 0 {
		return nil, fmt.Errorf("core: AutoAggregate with no conditions; use Total for the grand total")
	}
	var mentioned []string
	for dim := range auto.Where {
		mentioned = append(mentioned, dim)
	}
	sort.Strings(mentioned)
	cur := o
	for _, dim := range mentioned {
		pick := auto.Where[dim]
		d, err := cur.Schema().Dimension(dim)
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
		if li == 0 {
			cur, err = cur.SSelect(dim, pick.Values...)
		} else if cur, err = cur.SSelectLevel(dim, level, pick.Values...); err == nil {
			cur, err = cur.SAggregateCtx(context.Background(), nil, dim, level)
		}
		if err != nil {
			return nil, err
		}
	}
	var drop []string
	for _, d := range cur.Schema().Dimensions() {
		if _, ok := auto.Where[d.Name]; !ok {
			drop = append(drop, d.Name)
		}
	}
	if cur, err = cur.SProjectCtx(context.Background(), nil, drop...); err != nil {
		return nil, err
	}
	for _, dim := range mentioned {
		pick := auto.Where[dim]
		if !pick.WhereOnly {
			continue
		}
		if cur.Schema().NumDims() <= 1 {
			break
		}
		if len(pick.Values) == 1 {
			cur, err = cur.Slice(dim, pick.Values[0])
		} else {
			cur, err = cur.SProjectCtx(context.Background(), nil, dim)
		}
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// errSentinels are the typed errors a query can fail with.
var errSentinels = []error{
	core.ErrNotSummarizable, core.ErrUnknownMeasure, schema.ErrUnknownDimension,
	hierarchy.ErrUnknownValue, hierarchy.ErrUnknownLevel, ErrUnknown, ErrAmbiguous,
	budget.ErrCanceled,
}

// sameAnswer reports how two evaluations of one query differ: in error
// (sentinel and message), output dimensions and their values at every
// level, or any cell's slots bit for bit. "" means identical.
func sameAnswer(got, want *core.StatObject, gotErr, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, chain error %v", gotErr, wantErr)
	}
	if wantErr != nil {
		for _, s := range errSentinels {
			if errors.Is(gotErr, s) != errors.Is(wantErr, s) {
				return fmt.Sprintf("errors.Is(%v) differs: %v vs chain %v", s, gotErr, wantErr)
			}
		}
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, chain %q", gotErr, wantErr)
		}
		return ""
	}
	gd, wd := got.Schema().Dimensions(), want.Schema().Dimensions()
	if len(gd) != len(wd) {
		return fmt.Sprintf("%d dims, chain %d", len(gd), len(wd))
	}
	for i := range gd {
		if gd[i].Name != wd[i].Name || gd[i].Temporal != wd[i].Temporal {
			return fmt.Sprintf("dim %d is %q, chain %q", i, gd[i].Name, wd[i].Name)
		}
		gc, wc := gd[i].Class, wd[i].Class
		if gc.NumLevels() != wc.NumLevels() {
			return fmt.Sprintf("dim %q has %d levels, chain %d", gd[i].Name, gc.NumLevels(), wc.NumLevels())
		}
		for l := 0; l < gc.NumLevels(); l++ {
			if fmt.Sprint(gc.Level(l)) != fmt.Sprint(wc.Level(l)) {
				return fmt.Sprintf("dim %q level %d is %v, chain %v", gd[i].Name, l, gc.Level(l), wc.Level(l))
			}
		}
	}
	if got.Cells() != want.Cells() {
		return fmt.Sprintf("%d cells, chain %d", got.Cells(), want.Cells())
	}
	diff := ""
	slots := make([]float64, want.Store().NumSlots())
	want.Store().ForEach(func(coords []int, w []float64) bool {
		if !got.Store().Get(coords, slots) {
			diff = fmt.Sprintf("cell %v missing", want.Values(coords))
			return false
		}
		for j := range w {
			if math.Float64bits(slots[j]) != math.Float64bits(w[j]) {
				diff = fmt.Sprintf("cell %v slot %d = %v, chain %v", want.Values(coords), j, slots[j], w[j])
				return false
			}
		}
		return true
	})
	return diff
}

// checkAgainstChain evaluates q both ways and fails t on any difference.
func checkAgainstChain(t testing.TB, o *core.StatObject, q *Query) {
	t.Helper()
	got, gotErr := EvalCtx(context.Background(), o, q)
	want, wantErr := chainEval(o, q)
	if d := sameAnswer(got, want, gotErr, wantErr); d != "" {
		t.Fatalf("%+v: %s", *q, d)
	}
	if gotErr == nil {
		if origin, _ := got.Origin(); origin != o {
			t.Fatalf("%+v: DrillDown does not return the base object", *q)
		}
	}
}

// Plan roles per dimension, as perfbench's randomShape draws them.
const (
	roleAway = iota
	roleByLeaf
	roleByUpper
	roleWhereLeaf
	roleWhereUpper
	numRoles
)

// retailPlan builds the query for one role per retail dimension, drawing
// WHERE values (1..k distinct) from rng.
func retailPlan(r *workload.Retail, roles [3]int, rng *rand.Rand) *Query {
	q := &Query{Measure: "quantity sold"}
	for d, dim := range r.Object.Schema().Dimensions() {
		upper := dim.Class.Level(1)
		pickVals := func(vals []core.Value, k int) []core.Value {
			out := make([]core.Value, k)
			for i, j := range rng.Perm(len(vals))[:k] {
				out[i] = vals[j]
			}
			return out
		}
		switch roles[d] {
		case roleByLeaf:
			q.By = append(q.By, dim.Name)
		case roleByUpper:
			q.By = append(q.By, dim.Name+"."+upper.Name)
		case roleWhereLeaf:
			leaves := dim.Class.LeafLevel().Values
			q.Where = append(q.Where, Cond{Name: dim.Name, Values: pickVals(leaves, 1+rng.Intn(min(6, len(leaves))))})
		case roleWhereUpper:
			q.Where = append(q.Where, Cond{Name: dim.Name + "." + upper.Name, Values: pickVals(upper.Values, 1+rng.Intn(len(upper.Values)))})
		}
	}
	return q
}

// TestFoldMatchesOperatorChainRetail runs every role combination over
// the three retail dimensions — summarized away, BY leaf, BY upper level,
// WHERE leaf or upper level with 1..k values — with seeded values.
func TestFoldMatchesOperatorChainRetail(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		r, err := workload.NewRetail(40, 12, 60, 3000, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for shape := 0; shape < numRoles*numRoles*numRoles; shape++ {
			roles := [3]int{shape % numRoles, shape / numRoles % numRoles, shape / (numRoles * numRoles)}
			for rep := 0; rep < 2; rep++ {
				checkAgainstChain(t, r.Object, retailPlan(r, roles, rng))
			}
		}
	}
}

// TestFoldMatchesOperatorChainEmployment runs the employment demo's
// queries, including the ones summarizability or resolution rejects.
func TestFoldMatchesOperatorChainEmployment(t *testing.T) {
	obj, err := workload.NewEmployment()
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"SHOW employment WHERE year = 1992",
		"SHOW employment BY sex WHERE year = 1992",
		"SHOW employment BY professional class WHERE year = 1991",
		"SHOW employment WHERE year IN (1991, 1992)",
		"SHOW employment BY year",
		"SHOW employment BY year, sex, profession",
		"SHOW employment WHERE sex = male AND year = 1992 AND profession = 'civil engineer'",
		"SHOW employment BY sex WHERE professional class IN (engineer, teacher) AND year = 1980",
		"SHOW total income WHERE year = 1980",
		"SHOW total income BY sex",
		"SHOW total income WHERE professional class = engineer AND year = 1980",
		"SHOW total income BY sex WHERE profession.professional class IN (engineer, teacher)",
		"SHOW total income WHERE year IN (1980, 1991) AND sex IN (male, female)",
		// Rejections: a Stock measure summed over time, unknown names and
		// values, duplicates, a bare SHOW.
		"SHOW employment BY sex",
		"SHOW employment BY sex WHERE year IN (1991, 1992)",
		"SHOW employment WHERE professional class = engineer",
		"SHOW employment WHERE year = 2001",
		"SHOW employment WHERE professional class = plumber AND year = 1992",
		"SHOW employment WHERE year IN (1992, 1992)",
		"SHOW employment BY year WHERE year = 1992",
		"SHOW employment WHERE bogus = 1",
		"SHOW nope BY sex",
		"SHOW employment",
	} {
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		checkAgainstChain(t, obj, q)
	}
}

// fuzzObjects are small seeded objects with integer-valued data: one
// whose measures are additive everywhere or side-step additivity, one
// with a Stock measure over a temporal dimension and a non-strict,
// incomplete hierarchy.
func fuzzObjects(tb testing.TB) []*core.StatObject {
	tb.Helper()
	region := hierarchy.NewBuilder("region", "city", "c0", "c1", "c2", "c3", "c4", "c5").
		Level("state", "s0", "s1", "s2").
		Parent("c0", "s0").Parent("c1", "s0").Parent("c2", "s1").
		Parent("c3", "s1").Parent("c4", "s2").Parent("c5", "s2").
		MustBuild()
	messy := hierarchy.NewBuilder("item", "item", "i0", "i1", "i2", "i3", "i4").
		Level("group", "g0", "g1").
		Parent("i0", "g0").Parent("i1", "g0").Parent("i1", "g1").Parent("i2", "g1").Parent("i3", "g1").Parent("i4", "g1").
		Incomplete().
		MustBuild()
	dims := []schema.Dimension{
		{Name: "region", Class: region},
		{Name: "item", Class: messy},
		{Name: "year", Class: hierarchy.FlatClassification("year", "y0", "y1", "y2", "y3"), Temporal: true},
	}
	rng := rand.New(rand.NewSource(5))
	var objs []*core.StatObject
	for _, ms := range [][]core.Measure{
		{{Name: "amount", Func: core.Sum, Type: core.Flow}, {Name: "price", Func: core.Avg, Type: core.ValuePerUnit}, {Name: "top", Func: core.Max, Type: core.Stock}},
		{{Name: "headcount", Func: core.Sum, Type: core.Stock}, {Name: "visits", Func: core.Count, Type: core.Flow}},
	} {
		o := core.MustNew(schema.MustNew("fuzz", dims...), ms)
		for i := 0; i < 60; i++ {
			vals := map[string]float64{}
			for _, m := range ms {
				vals[m.Name] = float64(rng.Intn(1000) - 200)
			}
			if err := o.ObserveAt([]int{rng.Intn(6), rng.Intn(5), rng.Intn(4)}, vals); err != nil {
				tb.Fatal(err)
			}
		}
		objs = append(objs, o)
	}
	return objs
}

// decodePlan reads a query over o from bytes: the measure, then per
// dimension a role and, for WHERE, a value count and value indexes —
// repeated values included (a repeated leaf value is an error).
func decodePlan(o *core.StatObject, data []byte) *Query {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	ms := o.Measures()
	q := &Query{Measure: ms[next()%len(ms)].Name}
	for _, d := range o.Schema().Dimensions() {
		role := next() % numRoles
		level := d.Class.Level(0)
		name := d.Name
		if role == roleByUpper || role == roleWhereUpper {
			level = d.Class.Level(d.Class.NumLevels() - 1)
			name = d.Name + "." + level.Name
		}
		switch role {
		case roleByLeaf, roleByUpper:
			q.By = append(q.By, name)
		case roleWhereLeaf, roleWhereUpper:
			k := 1 + next()%3
			vals := make([]core.Value, k)
			for i := range vals {
				vals[i] = level.Values[next()%len(level.Values)]
			}
			q.Where = append(q.Where, Cond{Name: name, Values: vals})
		}
	}
	return q
}

// FuzzAutoFold decodes a plan from bytes over a small seeded object and
// requires the fold to answer it exactly as the operator chain does.
func FuzzAutoFold(f *testing.F) {
	objs := fuzzObjects(f)
	for _, seed := range [][]byte{
		{0, 0, 1, 2},
		{0, 4, 0, 3, 1, 2, 0},
		{1, 3, 2, 0, 1, 1, 3, 1, 1, 0},
		{2, 1, 4, 1, 1, 3, 2, 3, 0},
		{3, 4, 1, 1, 2, 0, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		o := objs[int(data[0])%len(objs)]
		checkAgainstChain(t, o, decodePlan(o, data[1:]))
	})
}

// TestAutoAggregateAllocsBounded: a fold allocates per plan and per
// output group, never per input cell — four times the transactions may
// add at most one allocation per 1,000 extra cells.
func TestAutoAggregateAllocsBounded(t *testing.T) {
	byMonth := func(tx int) (cells int, allocs float64) {
		r, err := workload.NewRetail(40, 12, 60, tx, 1)
		if err != nil {
			t.Fatal(err)
		}
		day, err := r.Object.Schema().Dimension("day")
		if err != nil {
			t.Fatal(err)
		}
		q := core.AutoQuery{Where: map[string]core.Pick{
			"day": {Level: "month", Values: day.Class.Level(1).Values},
		}}
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := r.Object.AutoAggregate(q); err != nil {
				t.Fatal(err)
			}
		})
		return r.Object.Cells(), allocs
	}
	smallCells, small := byMonth(5000)
	bigCells, big := byMonth(20000)
	t.Logf("SHOW quantity sold BY month: %d cells %.0f allocs, %d cells %.0f allocs", smallCells, small, bigCells, big)
	if big > 300 {
		t.Errorf("%.0f allocs per fold over %d cells, want <= 300", big, bigCells)
	}
	if extra := big - small; extra > float64(bigCells-smallCells)/1000 {
		t.Errorf("allocs grew by %.0f for %d extra cells: a per-cell allocation is back", extra, bigCells-smallCells)
	}
}

// coldPlans draws n retail plans of random shape, as cold traffic does.
func coldPlans(r *workload.Retail, seed int64, n int) []*Query {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]*Query, 0, n)
	for len(plans) < n {
		roles := [3]int{rng.Intn(numRoles), rng.Intn(numRoles), rng.Intn(numRoles)}
		if roles != [3]int{} {
			plans = append(plans, retailPlan(r, roles, rng))
		}
	}
	return plans
}

// BenchmarkEvalCold evaluates 2,000 seeded cold plans in rotation over
// statd's retail demo object: the query-evaluation layer of an uncached
// request (resolution plus one fold).
func BenchmarkEvalCold(b *testing.B) {
	r, err := workload.NewRetail(40, 12, 60, 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	plans := coldPlans(r, 3, 2000)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalCtx(ctx, r.Object, plans[i%len(plans)]); err != nil {
			b.Fatal(err)
		}
	}
}
