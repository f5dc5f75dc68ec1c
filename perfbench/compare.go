package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// record is one line of a run set: a run's result tagged with its
// workload and seed (see --record).
type record struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    bool        `json:"trace"`
	Result   *resultLine `json:"result"`
}

func readRunSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Result != nil && !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// compareMain is the run-set comparison mode. With one run set it
// reports, per workload and end-to-end metric, the median, quartiles and
// spread (interquartile distance over the median) against the metric's
// bound. With two — the parent's runs, then the change's — it adds the
// share of pairs the change won (the i-th run of each set form a pair,
// ties count for neither) and a verdict:
//
//	improved      the change won at least 9 pairs in 10 and the medians
//	              differ, in the better direction, by more than the
//	              parent's interquartile distance
//	worse         the change's median is worse by more than the bound
//	unresolved    a set's spread exceeds the bound and not every run of
//	              the change beats every run of the parent
//	within bound  otherwise
//
// It exits 1 when any metric is worse (or, with one set, when a spread
// other than setup_s's exceeds its bound).
func compareMain(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <runs.ndjson> [<change-runs.ndjson>]")
		return 2
	}
	def, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var sets [][]record
	for _, p := range args {
		rs, err := readRunSet(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		sets = append(sets, rs)
	}
	bad := false
	for _, w := range def.Workloads {
		a := valuesOf(sets[0], w.Name)
		if len(a) == 0 {
			continue
		}
		var b map[string][]float64
		if len(sets) == 2 {
			b = valuesOf(sets[1], w.Name)
		}
		fmt.Printf("== %s\n", w.Name)
		if b == nil {
			fmt.Printf("%-16s %5s %14s %14s %14s %9s %7s %s\n", "metric", "runs", "q1", "median", "q3", "spread", "bound", "")
		} else {
			fmt.Printf("%-16s %5s %14s %14s %9s %14s %14s %9s %6s %s\n", "metric", "runs", "parent median", "parent IQR", "spread", "change median", "change IQR", "spread", "won", "verdict")
		}
		for _, m := range def.EndToEnd {
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			av := a[m.Name]
			if len(av) < 2 {
				fmt.Printf("%-16s %5d (too few runs)\n", m.Name, len(av))
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			aspread := relSpread(aq1, amed, aq3)
			if b == nil {
				flag := "ok"
				switch {
				case aspread > bound && m.Name != "setup_s":
					flag = "SPREAD OVER BOUND"
					bad = true
				case aspread > bound/3:
					flag = "spread over a third of the bound"
				}
				fmt.Printf("%-16s %5d %14.6g %14.6g %14.6g %8.2f%% %6.0f%% %s\n", m.Name, len(av), aq1, amed, aq3, 100*aspread, 100*bound, flag)
				continue
			}
			bv := b[m.Name]
			if len(bv) < 2 {
				fmt.Printf("%-16s %5d (too few runs in the change's set)\n", m.Name, len(bv))
				continue
			}
			bq1, bmed, bq3 := quartiles(bv)
			bspread := relSpread(bq1, bmed, bq3)
			won := wonShare(av, bv, m.Better)
			v := verdict(av, bv, m.Better, bound)
			if v == "worse" {
				bad = true
			}
			fmt.Printf("%-16s %2d/%-2d %14.6g %14.6g %8.2f%% %14.6g %14.6g %8.2f%% %5.0f%% %s\n",
				m.Name, len(av), len(bv), amed, aq3-aq1, 100*aspread, bmed, bq3-bq1, 100*bspread, 100*won, v)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// valuesOf gathers each metric's values over one workload's runs, in
// run-set order.
func valuesOf(rs []record, workload string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		for name, it := range r.Result.Metrics {
			out[name] = append(out[name], it.Value)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// better reports whether x beats y in the metric's direction.
func better(x, y float64, dir string) bool {
	if dir == "higher" {
		return x > y
	}
	return x < y
}

// wonShare is the share of pairs (a[i], b[i]) the change won.
func wonShare(a, b []float64, dir string) float64 {
	n := min(len(a), len(b))
	won := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i], dir) {
			won++
		}
	}
	return float64(won) / float64(n)
}

// verdict judges the change's runs b against the parent's runs a.
func verdict(a, b []float64, dir string, bound float64) string {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	worseBy := (bmed - amed) / math.Abs(amed)
	if dir == "higher" {
		worseBy = -worseBy
	}
	if wonShare(a, b, dir) >= 0.9 && better(bmed, amed, dir) && math.Abs(bmed-amed) > aq3-aq1 {
		return "improved"
	}
	if worseBy > bound {
		return "worse"
	}
	if relSpread(aq1, amed, aq3) > bound || relSpread(bq1, bmed, bq3) > bound {
		as, bs := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(as)
		sort.Float64s(bs)
		allBetter := better(bs[len(bs)-1], as[0], dir)
		if dir == "higher" {
			allBetter = better(bs[0], as[len(as)-1], dir)
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "within bound"
}
