package cube_test

import (
	"context"
	"runtime"
	"testing"

	"statcube/internal/cube"
	"statcube/internal/workload"
)

// e9Builders are the three full-cube builders E9 compares.
var e9Builders = []struct {
	name  string
	build func(context.Context, *cube.Input, cube.Options) (*cube.Views, error)
}{
	{"ROLAPNaive", cube.BuildROLAPNaiveCtx},
	{"ROLAPSmallestParent", cube.BuildROLAPSmallestParentCtx},
	{"MOLAP", cube.BuildMOLAPCtx},
}

// retailInput generates E9's retail fact table over a cube of the given
// side length.
func retailInput(t *testing.T, side, rows int, seed int64) *cube.Input {
	t.Helper()
	r, err := workload.NewRetail(side, side, side, rows, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r.Input
}

// requireIdentical builds in with every builder, sequentially and with
// each worker count, and fails unless every build is byte-identical to
// the sequential one.
func requireIdentical(t *testing.T, label string, in *cube.Input, workers []int) {
	t.Helper()
	for _, b := range e9Builders {
		seq, err := b.build(context.Background(), in, cube.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s %s sequential: %v", label, b.name, err)
		}
		for _, w := range workers {
			par, err := b.build(context.Background(), in, cube.Options{Workers: w})
			if err != nil {
				t.Fatalf("%s %s workers=%d: %v", label, b.name, w, err)
			}
			if !par.Identical(seq) {
				t.Fatalf("%s %s workers=%d (GOMAXPROCS %d): Views not byte-identical to sequential",
					label, b.name, w, runtime.GOMAXPROCS(0))
			}
		}
	}
}

// TestParallelBuildersByteIdentical is the tentpole guarantee: every
// builder produces bit-for-bit the same Views whatever the worker count.
// A small input whose values span ten decades runs under GOMAXPROCS 1, 2
// and 8; E9's dense and sparse retail inputs run at seeds 1, 7 and 42.
func TestParallelBuildersByteIdentical(t *testing.T) {
	cube.ForceParallel(t)
	procs0 := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs0)
	fuzzy := cube.FuzzyInput([]int{5, 4, 3, 3}, 3000, 7)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		requireIdentical(t, "fuzzy", fuzzy, []int{0, 2, 4, 8})
	}
	runtime.GOMAXPROCS(procs0)
	for _, seed := range []int64{1, 7, 42} {
		requireIdentical(t, "dense", retailInput(t, 20, 50000, seed), []int{1, 2, 8})
		requireIdentical(t, "sparse", retailInput(t, 60, 20000, seed), []int{1, 2, 8})
	}
}

// TestBuildAllocsBounded guards the MOLAP and smallest-parent builds of
// E9's dense input against per-row allocation: a build allocates per
// view and per level, a few hundred objects in all, never per row of its
// 50,000. Workers 2 fans the lattice levels out even under the single
// processor AllocsPerRun runs on.
func TestBuildAllocsBounded(t *testing.T) {
	in := retailInput(t, 20, 50000, 5)
	for _, b := range e9Builders[1:] {
		for _, opt := range []cube.Options{{}, {Workers: 2}} {
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := b.build(context.Background(), in, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1000 {
				t.Errorf("%s workers=%d: %.0f allocs per build, want ≤ 1000", b.name, opt.Workers, allocs)
			}
		}
	}
}
