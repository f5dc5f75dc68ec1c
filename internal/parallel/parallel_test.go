package parallel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"statcube/internal/obs"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		limit, tasks, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)},
		{4, 100, 4},
		{4, 2, 2},
		{8, 0, 1},
		{-1, 3, min(3, runtime.GOMAXPROCS(0))},
		{1, 100, 1},
	}
	for _, c := range cases {
		if got := Workers(c.limit, c.tasks); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.limit, c.tasks, got, c.want)
		}
	}
}

func TestForEachRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 1000
		counts := make([]int32, n)
		st := Stage{Name: "test", Workers: workers}
		if err := st.ForEach(n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachError(t *testing.T) {
	boom := errors.New("boom")
	st := Stage{Name: "test", Workers: 1}
	err := st.ForEach(10, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("sequential error = %v, want %v", err, boom)
	}
}

// TestForEachCancellation checks that the first error stops workers from
// claiming queued tasks: with the failing task early in a long queue, far
// fewer than n tasks should execute.
func TestForEachCancellation(t *testing.T) {
	boom := errors.New("boom")
	const n = 100000
	var ran atomic.Int64
	st := Stage{Name: "test", Workers: 4}
	err := st.ForEach(n, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d tasks ran; cancellation never kicked in", got)
	} else {
		t.Logf("ran %d of %d tasks before cancellation", got, n)
	}
}

func TestMapReturnsIndexOrder(t *testing.T) {
	st := Stage{Name: "test", Workers: 8}
	out, err := Map(st, 500, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if _, err := Map(st, 10, func(i int) (int, error) {
		return 0, fmt.Errorf("fail %d", i)
	}); err == nil {
		t.Fatal("Map swallowed the error")
	}
}

func TestOwners(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		h := HashOwner(w)
		for k := uint64(0); k < 2000; k++ {
			if o := h(k); o < 0 || o >= w {
				t.Fatalf("HashOwner(%d)(%d) = %d out of [0,%d)", w, k, o, w)
			}
		}
	}
}

// seqGroupSum is the sequential reference: left-to-right accumulation per
// key, the order whose floating-point result the parallel path must match
// bit for bit.
func seqGroupSum(keys []uint64, vals []float64, nkeys int) []float64 {
	out := make([]float64, nkeys)
	for i, k := range keys {
		out[k] += vals[i]
	}
	return out
}

// TestGroupReduceByteIdentical drives the two-phase shuffle with GOMAXPROCS
// forced to 1, 2 and 8 and checks the grouped float sums are byte-identical
// to the sequential loop — the determinism guarantee every parallel stage
// in the engine relies on.
func TestGroupReduceByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, nkeys = 50000, 97
	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(nkeys))
		// Values spanning many magnitudes make float addition order visible.
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	want := seqGroupSum(keys, vals, nkeys)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 2, 3, 8} {
			st := Stage{Name: "test", Workers: workers}
			w := Workers(workers, n)
			parts := make([][]float64, w)
			for o := range parts {
				parts[o] = make([]float64, nkeys)
			}
			ran, err := st.GroupReduce(n, HashOwner(w),
				func(_, i int, out func(uint64)) { out(keys[i]) },
				func(o int, key uint64, i, _ int) { parts[o][key] += vals[i] })
			if err != nil {
				t.Fatalf("procs=%d workers=%d: %v", procs, workers, err)
			}
			got := make([]float64, nkeys)
			if !ran {
				if w > 1 {
					t.Fatalf("procs=%d workers=%d: parallel path refused", procs, workers)
				}
				got = seqGroupSum(keys, vals, nkeys)
			} else {
				owner := HashOwner(w)
				for k := 0; k < nkeys; k++ {
					got[k] = parts[owner(uint64(k))][k]
				}
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("procs=%d workers=%d: key %d = %x, want %x (not byte-identical)",
						procs, workers, k, math.Float64bits(got[k]), math.Float64bits(want[k]))
				}
			}
		}
	}
}

// TestGroupReduceReplayOrder checks the ordering contract directly: within
// one key, reduce sees (item, sub) pairs in ascending global order.
func TestGroupReduceReplayOrder(t *testing.T) {
	const n = 10000
	st := Stage{Name: "test", Workers: 8}
	w := Workers(8, n)
	type ev struct{ item, sub int }
	seen := make([]map[uint64][]ev, w)
	for o := range seen {
		seen[o] = map[uint64][]ev{}
	}
	ran, err := st.GroupReduce(n, HashOwner(w),
		func(_, i int, out func(uint64)) {
			// Two emissions per item, to distinct keys, exercising sub.
			out(uint64(i % 13))
			out(uint64(i % 7))
		},
		func(o int, key uint64, item, sub int) {
			seen[o][key] = append(seen[o][key], ev{item, sub})
		})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Skip("single worker resolved; nothing to verify")
	}
	for o := range seen {
		for key, evs := range seen[o] {
			for i := 1; i < len(evs); i++ {
				a, b := evs[i-1], evs[i]
				if a.item > b.item || (a.item == b.item && a.sub >= b.sub) {
					t.Fatalf("owner %d key %d: out-of-order replay %v then %v", o, key, a, b)
				}
			}
		}
	}
}

// TestGroupReduceAllocsSublinear guards the route phase against a per-item
// allocation: the emit callback is built once per chunk, so allocations
// come only from route-buffer growth (logarithmic in n). Going from 5,000
// to 50,000 items may add at most one allocation per 100 extra items; a
// per-item closure adds one or more per item.
func TestGroupReduceAllocsSublinear(t *testing.T) {
	const w = 4
	st := Stage{Name: "test", Workers: w}
	var sums [w]uint64
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			ran, err := st.GroupReduce(n, HashOwner(w),
				func(_, i int, out func(uint64)) { out(uint64(i % 1013)) },
				func(o int, key uint64, _, _ int) { sums[o] += key })
			if err != nil || !ran {
				t.Fatalf("n=%d: ran=%v err=%v", n, ran, err)
			}
		})
	}
	small, large := allocs(5000), allocs(50000)
	if large-small > (50000-5000)/100 {
		t.Fatalf("GroupReduce allocs grow with n: %.0f at n=5000, %.0f at n=50000", small, large)
	}
}

func TestStageMetricsAndSpan(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	before := obs.Default().Snapshot()
	root := obs.NewSpan("root")
	st := Stage{Name: "metrics-test", Workers: 4, Span: root}
	if err := st.ForEach(100, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	seq := Stage{Name: "metrics-test", Workers: 1, Span: root}
	if err := seq.ForEach(5, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	root.End()
	d := obs.Default().Snapshot().Sub(before)
	if d.Counters["parallel.stages_parallel"] != 1 {
		t.Errorf("stages_parallel delta = %d, want 1", d.Counters["parallel.stages_parallel"])
	}
	if d.Counters["parallel.stages_sequential"] != 1 {
		t.Errorf("stages_sequential delta = %d, want 1", d.Counters["parallel.stages_sequential"])
	}
	if d.Counters["parallel.tasks"] != 105 {
		t.Errorf("tasks delta = %d, want 105", d.Counters["parallel.tasks"])
	}
	kids := root.Children()
	if len(kids) != 2 {
		t.Fatalf("span children = %d, want 2", len(kids))
	}
	if kids[0].Name() != "parallel:metrics-test" || kids[1].Name() != "sequential:metrics-test" {
		t.Errorf("span children = %q, %q", kids[0].Name(), kids[1].Name())
	}
	if tasks, ok := kids[0].IntAttr("tasks"); !ok || tasks != 100 {
		t.Errorf("parallel child tasks attr = %d, %v", tasks, ok)
	}
}
