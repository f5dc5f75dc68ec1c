package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// forceFoldPath pins the fold's access path, restoring it on cleanup.
func forceFoldPath(t *testing.T, path int) {
	t.Helper()
	old := foldPath
	foldPath = path
	t.Cleanup(func() { foldPath = old })
}

// randomWidePick draws one role for a wideObject dimension: summarized
// away (no pick), grouped at the leaf or upper level, or restricted to
// 1..k leaf or upper-level values.
func randomWidePick(o *StatObject, dim string, rng *rand.Rand) (Pick, bool) {
	d, err := o.Schema().Dimension(dim)
	if err != nil {
		panic(err)
	}
	level := d.Class.Level(rng.Intn(d.Class.NumLevels()))
	vals := level.Values
	switch rng.Intn(3) {
	case 0:
		return Pick{}, false
	case 1:
		return Pick{Level: level.Name, Values: vals}, true
	}
	k := 1 + rng.Intn(len(vals))
	picked := make([]Value, k)
	for i, j := range rng.Perm(len(vals))[:k] {
		picked[i] = vals[j]
	}
	return Pick{Level: level.Name, Values: picked, WhereOnly: true}, true
}

// TestFoldPathsIdentical: the odometer walk and the filtered ForEach
// visit cells in the same order, over a MapStore (probed in place) or a
// DenseStore (read through Get), so on non-integer data too they must
// produce bit-identical objects for every plan.
func TestFoldPathsIdentical(t *testing.T) {
	o := wideObject(t)
	dense := MustNew(o.sch, o.measures, WithStore(NewDenseStore(o.sch.Shape(), o.nslots)))
	o.store.ForEach(func(coords []int, slots []float64) bool {
		dense.store.Put(coords, slots)
		return true
	})
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 150; i++ {
			q := AutoQuery{Where: map[string]Pick{}}
			for _, d := range o.Schema().Dimensions() {
				if p, ok := randomWidePick(o, d.Name, rng); ok {
					q.Where[d.Name] = p
				}
			}
			if len(q.Where) == 0 {
				continue
			}
			var res []*StatObject
			for _, src := range []*StatObject{o, dense} {
				for _, path := range []int{pathWalk, pathFilter} {
					forceFoldPath(t, path)
					r, err := src.AutoAggregate(q)
					if err != nil {
						t.Fatalf("seed %d plan %d %v: %v", seed, i, q, err)
					}
					res = append(res, r)
				}
			}
			for _, r := range res[1:] {
				if a, b := fmt.Sprint(res[0].Schema().Shape()), fmt.Sprint(r.Schema().Shape()); a != b {
					t.Fatalf("seed %d plan %d: shapes %s and %s", seed, i, a, b)
				}
				cellsIdentical(t, res[0], r)
			}
		}
	}
}
