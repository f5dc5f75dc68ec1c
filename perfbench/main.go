// Command perfbench is statcube's end-to-end benchmark. It generates a
// workload from a seed, drives the program through its public
// constructors (the statd daemon over loopback HTTP, or the cube
// builders directly), checks every answer, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload hot_read --seed 1 --seconds 10 --trace 0
//	perfbench compare parent.ndjson change.ndjson
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json,
// measured with the benchmark's tracing off in child processes of its
// own (see runShards); with --trace 1 it reports
// the per-layer metrics from a traced run, writes the span dump under
// .bench_build/trace/ and prints the per-layer self-time table.
// --record FILE appends the run's result, tagged with its workload and
// seed, to an NDJSON file the compare mode reads. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, runConfig) (*report, error){
	"hot_read":    runHotRead,
	"cold_read":   runColdRead,
	"append_read": runAppendRead,
	"cube_build":  runCubeBuild,
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// dur is the measured duration of one run.
func (c runConfig) dur() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metric is one reported number.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int // timing samples behind the value; 0 when not a timing
}

// report is what a workload run returns.
type report struct {
	attempted, failed int64
	checkErrs         []string
	metrics           map[string]metric
	notes             []string // human-readable lines printed before the result
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Name: name, Value: v, Unit: unit, Samples: samples}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check; any one fails the run.
func (r *report) check(err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
}

// successRatio is the share of attempted operations that succeeded.
func (r *report) successRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return 1 - float64(r.failed)/float64(r.attempted)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain())
}

func runMain() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: hot_read, cold_read, append_read or cube_build")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same data and request streams")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	record := fs.String("record", "", "append the run's result, tagged with workload and seed, to this NDJSON file")
	shard := fs.Int("shard", 0, "internal: run as the given child process of an end-to-end run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	run, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	def, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg := runConfig{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1}
	var rep *report
	if cfg.trace || *shard > 0 {
		rep, err = run(context.Background(), cfg)
	} else {
		rep, err = runShards(cfg, def.EndToEnd)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	want := def.EndToEnd
	if cfg.trace {
		want = def.PerLayer
	}
	out, err := result(rep, want, !cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	printMetrics(rep, want)
	for _, e := range rep.checkErrs {
		fmt.Println("CHECK FAILED:", e)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		if err := appendRecord(*record, cfg, out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// shards is how many child processes an end-to-end run is split into,
// one after another, each measuring an equal share of the run's seconds.
// On a shared virtual machine a process keeps a speed of its own for its
// whole life — from where its threads land and what runs beside them —
// that differs from the next process's by more than the program's noise
// within one process; the median over several processes follows the
// program rather than one process's luck.
const shards = 3

// runShards runs cfg's end-to-end measurement in shards child processes
// and reports, per metric, the median of the children's values;
// success_ratio is pooled over every child's operations. A child whose
// output checks failed fails the run.
func runShards(cfg runConfig, want []specMetric) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	vals := map[string][]float64{}
	for i := 1; i <= shards; i++ {
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds/shards, 'g', -1, 64), "--trace", "0", "--shard", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output() // waits for the child to exit
		lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("shard %d printed no result (%v)", i, runErr)
		}
		for _, l := range lines[:len(lines)-1] {
			rep.note("shard %d: %s", i, l)
		}
		if !res.Correct {
			rep.check(fmt.Errorf("shard %d: output checks failed", i))
		}
		rep.attempted += res.Attempted
		rep.failed += res.Failed
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	for _, m := range want {
		v := median(vals[m.Name])
		if m.Name == "success_ratio" {
			v = rep.successRatio()
		}
		rep.set(m.Name, v, m.Unit, 0)
	}
	rep.note("%s: each metric is the median of %d child processes measuring %.3g s each", cfg.workload, shards, cfg.seconds/shards)
	return rep, nil
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specPath is the benchmark definition, at the repository root.
const specPath = "BENCHMARK.json"

func loadSpec() (*spec, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return &s, nil
}

// resultLine is the run's last output line.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the result line with exactly the metrics want declares.
// Every workload measures every end-to-end metric (requireAll); a
// per-layer metric of a layer this workload does no work in reads 0. A
// metric the run produced but the definition does not declare, or
// one whose unit disagrees, is a benchmark bug.
func result(rep *report, want []specMetric, requireAll bool) (*resultLine, error) {
	out := &resultLine{
		Correct:   len(rep.checkErrs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]resultItem{},
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		got, ok := rep.metrics[m.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if ok && got.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
		v := got.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = resultItem{Value: v, Unit: m.Unit}
	}
	for name := range rep.metrics {
		if !declared[name] {
			return nil, fmt.Errorf("metric %s is not declared in the benchmark definition", name)
		}
	}
	if out.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return out, nil
}

// printMetrics writes one aligned line per declared metric, with the
// sample count behind each timing.
func printMetrics(rep *report, want []specMetric) {
	for _, m := range want {
		got := rep.metrics[m.Name]
		line := fmt.Sprintf("%-36s %14.6g %-6s", m.Name, got.Value, m.Unit)
		if got.Samples > 0 {
			line += fmt.Sprintf(" (n=%d)", got.Samples)
		}
		fmt.Println(line)
	}
}

// appendRecord appends {"workload","seed","trace","result"} to path.
func appendRecord(path string, cfg runConfig, out *resultLine) error {
	b, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Trace    bool        `json:"trace"`
		Result   *resultLine `json:"result"`
	}{cfg.workload, cfg.seed, cfg.trace, out})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
