package main

import (
	"context"
	"fmt"
	"time"

	"statcube/internal/cube"
	"statcube/internal/workload"
)

// cube_build: no server. One loop builds the full 2^3 cube of E9's two
// regimes with each of the three builders in rotation.

// regime is one E9 input: retail-shaped facts over a cube of the given
// shape.
type regime struct {
	name string
	card [3]int
	rows int
}

var regimes = []regime{
	{name: "dense", card: [3]int{20, 20, 20}, rows: 50000},
	{name: "sparse", card: [3]int{60, 60, 60}, rows: 20000},
}

// builder is one full-cube construction strategy.
type builder struct {
	name  string
	build func(context.Context, *cube.Input, cube.Options) (*cube.Views, error)
}

var builders = []builder{
	{"naive", cube.BuildROLAPNaiveCtx},
	{"sp", cube.BuildROLAPSmallestParentCtx},
	{"molap", cube.BuildMOLAPCtx},
}

// spanNames names each builder call's span: cube.build.<regime>.<builder>.
var spanNames = func() (out [2][3]string) {
	for ri, rg := range regimes {
		for bi, b := range builders {
			out[ri][bi] = "cube.build." + rg.name + "." + b.name
		}
	}
	return out
}()

// newRegimeInputs generates both regimes' fact tables from the seed.
func newRegimeInputs(seed int64) ([]*cube.Input, error) {
	var ins []*cube.Input
	for i, rg := range regimes {
		r, err := workload.NewRetail(rg.card[0], rg.card[1], rg.card[2], rg.rows, seed*10+int64(i))
		if err != nil {
			return nil, err
		}
		ins = append(ins, r.Input)
	}
	return ins, nil
}

// buildTimes holds build durations per regime and builder, and every
// build's duration and completion time (ns since the rotation started)
// in build order.
type buildTimes struct {
	byKind    [2][3][]int64
	lat, done []int64
}

// rotate builds every regime with every builder, starting each round at
// the next builder, for at least one round and until d has passed.
// Every round's three results per regime must be equal. It returns the
// build times, or the first build error.
func rotate(ctx context.Context, ins []*cube.Input, d time.Duration, tr *tracer, rep *report) (buildTimes, error) {
	var bt buildTimes
	start := time.Now()
	deadline := start.Add(d)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for ri, in := range ins {
			var views [3]*cube.Views
			for k := range builders {
				bi := (round + k) % len(builders)
				s := tr.request(spanNames[ri][bi])
				v, err := builders[bi].build(ctx, in, cube.Options{})
				ns := tr.end(s).Nanoseconds()
				bt.byKind[ri][bi] = append(bt.byKind[ri][bi], ns)
				bt.lat = append(bt.lat, ns)
				bt.done = append(bt.done, time.Since(start).Nanoseconds())
				rep.attempted++
				if err != nil {
					rep.failed++
					return bt, fmt.Errorf("%s build of %s cube: %w", builders[bi].name, regimes[ri].name, err)
				}
				views[bi] = v
			}
			for bi := 1; bi < len(builders); bi++ {
				if !views[0].Equal(views[bi]) {
					rep.check(fmt.Errorf("cube_build round %d: %s and %s builds of the %s cube differ", round, builders[0].name, builders[bi].name, regimes[ri].name))
				}
			}
		}
	}
	return bt, nil
}

func runCubeBuild(ctx context.Context, cfg runConfig) (*report, error) {
	ins, setupS, setupN, err := timedSetups(func() ([]*cube.Input, error) { return newRegimeInputs(cfg.seed) }, func([]*cube.Input) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if _, err := rotate(ctx, ins, warmup, nil, newReport()); err != nil {
		return nil, err
	}

	if !cfg.trace {
		start := time.Now()
		bt, err := rotate(ctx, ins, cfg.dur(), nil, rep)
		if err != nil {
			return nil, err
		}
		// Throughput is builds per second of build time: the equality
		// checks between rounds are not the program's work.
		setWindowed(rep, bt.lat, bt.done, time.Since(start), true)
		rep.set("setup_s", setupS, "s", setupN)
		rep.set("peak_rss_mb", peakRSSMB(), "MB", 0)
		rep.set("success_ratio", rep.successRatio(), "ratio", 0)
		for ri, rg := range regimes {
			line := fmt.Sprintf("cube_build %-6s median ms:", rg.name)
			for bi, b := range builders {
				line += fmt.Sprintf(" %s %.3f (n=%d)", b.name, median(msOf(bt.byKind[ri][bi])), len(bt.byKind[ri][bi]))
			}
			rep.note("%s", line)
		}
		return rep, nil
	}

	// The traced run: rotation rounds alternating untraced and traced
	// (a span around every builder call) for half the time — the
	// untraced rounds give the per-builder medians and GC, the pair the
	// tracing overhead — then each builder measured alone for its
	// allocations.
	tr := newTracer()
	var u, t buildTimes
	before := readCounters()
	mem := readMem()
	deadline := time.Now().Add(cfg.dur() / 2)
	for i := 0; time.Now().Before(deadline); i++ {
		dst, rtr := &u, (*tracer)(nil)
		if i%2 == 1 {
			dst, rtr = &t, tr
		}
		bt, err := rotate(ctx, ins, 0, rtr, rep)
		if err != nil {
			return nil, err
		}
		for ri := range bt.byKind {
			for bi := range bt.byKind[ri] {
				dst.byKind[ri][bi] = append(dst.byKind[ri][bi], bt.byKind[ri][bi]...)
			}
		}
	}
	gc := memSince(mem)
	delta := before.since()
	// Both modes' rounds ran in the window; the counters are per build.
	setParallelLayer(rep, delta, int(rep.attempted))
	setRuntimeLayer(rep, gc, int(rep.attempted))
	rep.set("cube.molap_degraded", float64(delta["cube.molap_degraded"]), "count", 0)
	phase := cfg.dur() / 2
	var uAll, tAll []int64
	for ri, rg := range regimes {
		for bi, b := range builders {
			uAll = append(uAll, u.byKind[ri][bi]...)
			tAll = append(tAll, t.byKind[ri][bi]...)
			rep.set(fmt.Sprintf("cube.%s.%s.ms", rg.name, b.name), median(msOf(u.byKind[ri][bi])), "ms", len(u.byKind[ri][bi]))
			allocs, bytes := allocsPerCall(allocBuilds, phase/8, func(int) {
				_, _ = b.build(ctx, ins[ri], cube.Options{}) // the rotation already built this input without error
			})
			rep.set(fmt.Sprintf("cube.%s.%s.allocs", rg.name, b.name), allocs, "count", 0)
			rep.set(fmt.Sprintf("cube.%s.%s.bytes", rg.name, b.name), bytes, "B", 0)
		}
		naive, molap := median(msOf(u.byKind[ri][0])), median(msOf(u.byKind[ri][2]))
		if molap > 0 {
			rep.set("cube.molap_over_naive."+rg.name, naive/molap, "ratio", 0)
		}
		cells := 1
		for _, c := range rg.card {
			cells *= c
		}
		base, err := cube.Materialize(ins[ri], nil)
		if err != nil {
			return nil, err
		}
		rep.set("workload.cube_density."+rg.name, float64(base.Entries())/float64(cells), "ratio", 0)
	}
	return rep, finishTrace(cfg, rep, tr, uAll, tAll)
}

// allocBuilds is how many builds of each kind the allocation count
// averages over.
const allocBuilds = 5
