package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"statcube/internal/core"
	"statcube/internal/obs"
	"statcube/internal/query"
	"statcube/internal/serve"
)

// A process sets its workload up at least minSetups and at most
// maxSetups times, stopping once minSetupTime has passed; setup_s is the
// median, and the last set-up is the one measured. Cheap set-ups are
// repeated more, so their median rests on more samples.
const (
	minSetups    = 3
	maxSetups    = 9
	minSetupTime = 500 * time.Millisecond
)

// timedSetups runs setup as above, tearing down every set-up but the
// last, and returns the last with the median set-up time in seconds and
// the number of set-ups.
func timedSetups[T any](setup func() (T, error), teardown func(T)) (T, float64, int, error) {
	var last T
	var secs []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < minSetupTime); i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC() // start each set-up from the same heap state
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, 0, err
		}
		d := time.Since(t0)
		spent += d
		secs = append(secs, d.Seconds())
		last = v
	}
	return last, median(secs), len(secs), nil
}

// loopResult is what a closed loop measured.
type loopResult struct {
	lat               []int64 // latency of each successful operation, ns
	done              []int64 // when each completed, ns since the loop started
	attempted, failed int64
	elapsed           time.Duration
}

func (l loopResult) opsPerSec() float64 { return float64(len(l.lat)) / l.elapsed.Seconds() }

// maxClientRate bounds the operations one client completes per second;
// sample buffers are sized from it up front, so growing them never
// copies or frees memory mid-run and the program's garbage collector
// sees the same heap throughout.
const maxClientRate = 20000

func sampleCap(d time.Duration) int { return int(d.Seconds()*maxClientRate) + 1 }

// closedLoop runs clients goroutines for d: each calls op and, once it
// returns, calls it again — a client that waits for its reply before
// sending the next request. op reports the operation's latency and
// whether it succeeded.
func closedLoop(clients int, d time.Duration, op func(client int) (time.Duration, bool)) loopResult {
	lat := make([][]int64, clients)
	done := make([][]int64, clients)
	for c := range lat {
		lat[c] = make([]int64, 0, sampleCap(d))
		done[c] = make([]int64, 0, sampleCap(d))
	}
	att := make([]int64, clients)
	fail := make([]int64, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l, ok := op(c)
				att[c]++
				if ok {
					lat[c] = append(lat[c], l.Nanoseconds())
					done[c] = append(done[c], time.Since(start).Nanoseconds())
				} else {
					fail[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start)}
	for c := 0; c < clients; c++ {
		res.lat = append(res.lat, lat[c]...)
		res.done = append(res.done, done[c]...)
		res.attempted += att[c]
		res.failed += fail[c]
	}
	return res
}

// windows is how many equal windows a measured run is cut into. The
// throughput and each latency percentile are computed per window, and
// the run reports the windows' quartile on the better side: the 75th
// percentile of the window throughputs and the 25th percentile of each
// window latency percentile. Interference from other tenants of the
// machine comes and goes within seconds and only ever slows a window
// down, so the better quartile follows the program and not the machine;
// a change in the program's own work moves every window.
const windows = 10

// setWindowed reports ops_per_s and the latency percentiles of the
// operations in lat, which completed at the offsets in done within a
// measured span of length span. With busy set, throughput is operations
// per second of their own latency (one operation at a time), otherwise
// per second of wall time.
func setWindowed(rep *report, lat, done []int64, span time.Duration, busy bool) {
	ws := make([][]float64, windows)
	for i, d := range done {
		w := int(int64(windows) * d / max(span.Nanoseconds(), 1))
		w = min(max(w, 0), windows-1)
		ws[w] = append(ws[w], float64(lat[i])/1e6)
	}
	var rate, p50, p90 []float64
	for _, w := range ws {
		if len(w) == 0 {
			continue
		}
		if busy {
			var sum float64
			for _, v := range w {
				sum += v
			}
			rate = append(rate, float64(len(w))/(sum/1e3))
		} else {
			rate = append(rate, float64(len(w))/(span.Seconds()/windows))
		}
		p50 = append(p50, pct(w, 50))
		p90 = append(p90, pct(w, 90))
	}
	n := len(lat)
	rep.set("ops_per_s", upperQuartile(rate), "1/s", n)
	rep.set("op_p50_ms", lowerQuartile(p50), "ms", n)
	rep.set("op_p90_ms", lowerQuartile(p90), "ms", n)
}

func lowerQuartile(xs []float64) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	q1, _, _ := quartiles(xs)
	return q1
}

func upperQuartile(xs []float64) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	_, _, q3 := quartiles(xs)
	return q3
}

// counters reads a fixed set of the engine's obs counters.
type counters map[string]int64

var counterNames = []string{
	"cache.hits", "cache.misses", "cache.coalesced", "cache.evictions", "cache.invalidations",
	"serve.shed", "serve.errors",
	"core.cells_scanned", "core.groups_emitted",
	"parallel.tasks", "parallel.stages_parallel", "parallel.stages_sequential",
	"cube.molap_degraded",
	"writer.retries", "writer.aborted_loads", "writer.delta_cells", "writer.loads",
	"snapshot.bytes_written", "snapshot.saves",
}

func readCounters() counters {
	c := counters{}
	for _, n := range counterNames {
		c[n] = obs.Default().Counter(n).Value()
	}
	return c
}

// since returns the per-counter increase from before to now.
func (before counters) since() counters {
	now := readCounters()
	d := counters{}
	for n, v := range now {
		d[n] = v - before[n]
	}
	return d
}

// setCacheLayer reports the cache's and the serving layer's counters
// from a delta taken around a measured phase.
func setCacheLayer(rep *report, d counters) {
	lookups := d["cache.hits"] + d["cache.misses"] + d["cache.coalesced"]
	if lookups > 0 {
		rep.set("cache.hit_ratio", float64(d["cache.hits"])/float64(lookups), "ratio", 0)
	}
	rep.set("cache.misses", float64(d["cache.misses"]), "count", 0)
	rep.set("cache.coalesced", float64(d["cache.coalesced"]), "count", 0)
	rep.set("cache.evictions", float64(d["cache.evictions"]), "count", 0)
	rep.set("cache.invalidations", float64(d["cache.invalidations"]), "count", 0)
	rep.set("serve.shed", float64(d["serve.shed"]), "count", 0)
	rep.set("serve.errors", float64(d["serve.errors"]), "count", 0)
}

// setRuntimeLayer reports GC activity per thousand operations.
func setRuntimeLayer(rep *report, m memDelta, ops int) {
	if ops == 0 {
		return
	}
	k := float64(ops) / 1000
	rep.set("runtime.gc_cycles_per_1k_ops", float64(m.gcCycles)/k, "count", 0)
	rep.set("runtime.gc_pause_ms_per_1k_ops", float64(m.pause.Nanoseconds())/1e6/k, "ms", 0)
}

// replayer drives one request text at a time through each layer's
// public functions: an HTTP round trip to one fresh daemon, the serving
// handler of another fresh server called in-process (both receive the
// same request sequence, so they hit and miss their caches alike), then
// query.Parse, query.Normalize, query.EvalCtx, and for every
// explainEvery-th request query.RunExplainCtx. Each call gets a span
// under the request's root span.
type replayer struct {
	ctx     context.Context
	obj     *core.StatObject
	remote  *daemon
	client  *http.Client
	handler http.Handler
	tr      *tracer
	n       int

	netNs                   []int64 // round trip minus handler, per request
	parseNs, normNs, evalNs []int64
	resultRows              []float64
	engine                  counters // engine counter deltas summed over the direct evaluations
	explainSelf             map[string][]float64
	failed                  int
}

const explainEvery = 8

func newReplayer(ctx context.Context, obj *core.StatObject, tr *tracer) (*replayer, error) {
	remote, err := startDaemon(ctx, obj, false)
	if err != nil {
		return nil, err
	}
	local, err := serve.New(serve.Config{Object: obj, Timeout: 5 * time.Second})
	if err != nil {
		remote.close()
		return nil, err
	}
	return &replayer{
		ctx: ctx, obj: obj, remote: remote, client: newClient(1), handler: local.Handler(), tr: tr,
		engine: counters{}, explainSelf: map[string][]float64{},
	}, nil
}

func (r *replayer) close() {
	r.client.CloseIdleConnections()
	r.remote.close()
}

// serveOnce runs one request through the handler in-process.
func serveOnce(h http.Handler, text string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query.bin?q="+url.QueryEscape(text), nil))
	return rec
}

func (r *replayer) replay(text string) {
	obj := r.obj
	root := r.tr.request("replay")

	s := r.tr.child(root, "http.roundtrip")
	res, err := get(r.client, r.remote.url, text)
	rt := r.tr.end(s)
	if err != nil || res.status != http.StatusOK {
		r.failed++
	}
	s = r.tr.child(root, "serve.handler")
	rec := serveOnce(r.handler, text)
	r.netNs = append(r.netNs, (rt - r.tr.end(s)).Nanoseconds())
	if rec.Code != http.StatusOK {
		r.failed++
	} else if _, rows, err := resultTotal(rec.Body.Bytes()); err == nil {
		r.resultRows = append(r.resultRows, float64(rows))
	}

	s = r.tr.child(root, "query.parse")
	q, err := query.Parse(text)
	r.parseNs = append(r.parseNs, r.tr.end(s).Nanoseconds())
	if err != nil {
		r.failed++
		r.tr.end(root)
		return
	}
	s = r.tr.child(root, "query.normalize")
	_, _, err = query.Normalize(obj, q)
	r.normNs = append(r.normNs, r.tr.end(s).Nanoseconds())
	if err != nil {
		r.failed++
		r.tr.end(root)
		return
	}

	before := readCounters()
	s = r.tr.child(root, "query.eval")
	_, err = query.EvalCtx(r.ctx, obj, q)
	r.evalNs = append(r.evalNs, r.tr.end(s).Nanoseconds())
	for n, v := range before.since() {
		r.engine[n] += v
	}
	if err != nil {
		r.failed++
	}

	if r.n%explainEvery == 0 {
		s = r.tr.child(root, "query.explain")
		_, sp, err := query.RunExplainCtx(r.ctx, obj, text)
		r.tr.end(s)
		if err == nil {
			self := map[string]float64{}
			sp.Walk(func(_ int, x *obs.Span) {
				d := x.Duration()
				for _, c := range x.Children() {
					d -= c.Duration()
				}
				name := x.Name()
				for _, prefix := range []string{"collapse:", "scan:"} {
					if strings.HasPrefix(name, prefix) {
						name = prefix[:len(prefix)-1]
					}
				}
				self[name] += float64(d.Nanoseconds())
			})
			for _, name := range []string{"resolve", "auto-aggregate", "collapse", "scan"} {
				r.explainSelf[name] = append(r.explainSelf[name], self[name])
			}
		}
	}
	r.tr.end(root)
	r.n++
}

// report sets the per-layer metrics the replay measured.
func (r *replayer) report(rep *report) {
	n := len(r.evalNs)
	rep.set("net.http_us", pct(usOf(r.netNs), 50), "us", len(r.netNs))
	rep.set("query.parse_us", pct(usOf(r.parseNs), 50), "us", len(r.parseNs))
	rep.set("query.normalize_us", pct(usOf(r.normNs), 50), "us", len(r.normNs))
	rep.set("query.eval_p50_us", pct(usOf(r.evalNs), 50), "us", n)
	rep.set("query.eval_p99_us", pct(usOf(r.evalNs), 99), "us", n)
	if n > 0 {
		cells := float64(r.engine["core.cells_scanned"]) / float64(n)
		groups := float64(r.engine["core.groups_emitted"]) / float64(n)
		rep.set("core.cells_scanned_per_query", cells, "count", 0)
		rep.set("core.groups_emitted_per_query", groups, "count", 0)
		if cells > 0 {
			rep.set("core.scan_efficiency", groups/cells, "ratio", 0)
		}
		setParallelLayer(rep, r.engine, n)
	}
	rows := append([]float64(nil), r.resultRows...)
	rep.set("workload.result_rows_p50", pct(rows, 50), "count", len(rows))
	rep.set("workload.result_rows_p99", pct(rows, 99), "count", len(rows))
	for name, metricName := range map[string]string{
		"resolve": "explain.resolve_us", "auto-aggregate": "explain.auto_aggregate_us",
		"collapse": "explain.collapse_us", "scan": "explain.scan_us",
	} {
		xs := r.explainSelf[name]
		rep.set(metricName, pct(xs, 50)/1e3, "us", len(xs))
	}
}

// setParallelLayer reports the parallel engine's counters per operation.
func setParallelLayer(rep *report, d counters, ops int) {
	k := float64(ops)
	rep.set("parallel.tasks_per_op", float64(d["parallel.tasks"])/k, "count", 0)
	rep.set("parallel.stages_parallel_per_op", float64(d["parallel.stages_parallel"])/k, "count", 0)
	rep.set("parallel.stages_sequential_per_op", float64(d["parallel.stages_sequential"])/k, "count", 0)
}

// allocsPerCall runs fn up to n times (stopping after limit) and
// returns the heap allocations and bytes per call.
func allocsPerCall(n int, limit time.Duration, fn func(i int)) (allocs, bytes float64) {
	runtime.GC()
	before := readMem()
	deadline := time.Now().Add(limit)
	i := 0
	for ; i < n && time.Now().Before(deadline); i++ {
		fn(i)
	}
	m := memSince(before)
	return float64(m.mallocs) / float64(i), float64(m.bytes) / float64(i)
}

// setBudgetLayer reports the serving ledger's high-water mark.
func setBudgetLayer(rep *report, srv *serve.Server) {
	rep.set("budget.peak_mb", float64(srv.Governor().PeakBytes())/(1<<20), "MB", 0)
}
