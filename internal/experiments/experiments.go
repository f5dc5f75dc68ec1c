// Package experiments reproduces, one by one, every figure and efficiency
// claim of Shoshani's "OLAP and Statistical Databases" survey as a
// measurable experiment (the per-experiment index lives in DESIGN.md;
// results are recorded in EXPERIMENTS.md). Each experiment returns a
// Report with the paper's claim, the measured rows, and the observed
// shape, so `cmd/cubebench` can print the full suite and the benchmarks in
// bench_test.go can time the kernels.
//
// Absolute numbers are hardware-dependent; what each experiment asserts is
// the *shape* of the cited result — who wins, by roughly what factor,
// where the crossover sits.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Report is one experiment's outcome.
type Report struct {
	ID         string
	Title      string
	PaperClaim string
	Lines      []string // formatted measurement rows
	Shape      string   // one-line statement of the observed shape
	Err        error    // set when the experiment could not run
}

// String renders the report for the terminal.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "  paper: %s\n", r.PaperClaim)
	if r.Err != nil {
		fmt.Fprintf(&b, "  ERROR: %v\n", r.Err)
		return b.String()
	}
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	fmt.Fprintf(&b, "  shape: %s\n", r.Shape)
	return b.String()
}

// addf appends a formatted measurement line.
func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// fail records an error and returns the report.
func (r *Report) fail(err error) *Report {
	r.Err = err
	return r
}

// Experiment pairs an ID with its runner so callers can filter before
// paying for a run.
type Experiment struct {
	ID  string
	Run func() *Report
}

// All returns the full experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1Marginals},
		{"E2", E2TransposedFiles},
		{"E3", E3Encodings},
		{"E4", E4Linearization},
		{"E5", E5HeaderCompression},
		{"E6", E6GreedyViews},
		{"E7", E7Chunking},
		{"E8", E8ExtendibleArrays},
		{"E9", E9MolapVsRolap},
		{"E10", E10Tracker},
		{"E11", E11AutomaticAggregation},
		{"E12", E12Summarizability},
		{"E13", E13Homomorphism},
		{"E14", E14Sampling},
		{"E15", E15ClassificationMatching},
		{"E16", E16Snapshot},
		{"E17", E17SustainedAppends},
	}
}

// timeIt runs fn once and returns the wall-clock duration.
func timeIt(fn func()) time.Duration {
	//lint:ignore nodeterm duration_ms is machine-dependent by declaration; benchdiff diffs only the deterministic counters
	start := time.Now()
	fn()
	//lint:ignore nodeterm duration_ms is machine-dependent by declaration; benchdiff diffs only the deterministic counters
	return time.Since(start)
}

// bestOf runs fn n times and returns the fastest run, so a comparison is
// not dominated by allocator or scheduler noise.
func bestOf(n int, fn func()) (d time.Duration) {
	for i := 0; i < n; i++ {
		if t := timeIt(fn); i == 0 || t < d {
			d = t
		}
	}
	return d
}

// ratio formats a speedup/shrink factor defensively.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
