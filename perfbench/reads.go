package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"statcube/internal/core"
	"statcube/internal/query"
	"statcube/internal/serve"
)

// Read workloads: two closed-loop clients, each waiting for its reply
// before sending the next query, over at most two loopback connections.
const (
	readClients = 2
	hotPlanN    = 32 // distinct plans in hot_read's vocabulary
	hotSpellN   = 4  // spellings of each plan
	// warmup is traffic sent before timing starts, long enough for the
	// connections, the cache and the garbage collector's pacing to
	// settle.
	warmup = time.Second
	// coldChecks caps how many cold_read answers are checked against
	// query.Run after the timed phase.
	coldChecks = 200
)

// readEnv is one set-up of a read workload.
type readEnv struct {
	d      *daemon
	client *http.Client
	warm   []reply // replies to the set-up's warm-up requests
}

func (e *readEnv) close() {
	e.client.CloseIdleConnections()
	e.d.close()
}

// setupRead builds statd's retail object from the seed, brings the daemon
// up (with the durable write path when durable is set) and sends each
// warm-up text once.
func setupRead(ctx context.Context, seed int64, durable bool, warm []string) (*readEnv, error) {
	r, err := newRetail(seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, r.Object, durable)
	if err != nil {
		return nil, err
	}
	e := &readEnv{d: d, client: newClient(readClients)}
	for _, t := range warm {
		rep, err := get(e.client, d.url, t)
		if err != nil {
			e.close()
			return nil, err
		}
		e.warm = append(e.warm, rep)
	}
	return e, nil
}

func runHotRead(ctx context.Context, cfg runConfig) (*report, error) {
	plans, warm, err := hotVocabulary(cfg.seed)
	if err != nil {
		return nil, err
	}
	env, setupS, setupN, err := timedSetups(func() (*readEnv, error) {
		return setupRead(ctx, cfg.seed, false, warm)
	}, (*readEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := newReport()
	checkWarm(rep, env, warm)

	var streams []*hotStream
	for c := 0; c < readClients; c++ {
		streams = append(streams, plans.stream(cfg.seed*1000+int64(c)))
	}
	var mu sync.Mutex
	nonHits := 0
	op := func(tr *tracer) func(int) (time.Duration, bool) {
		return func(c int) (time.Duration, bool) {
			text := streams[c].next()
			s := tr.request("http.roundtrip")
			res, err := get(env.client, env.d.url, text)
			lat := tr.end(s)
			ok := err == nil && res.status == http.StatusOK
			if ok && res.cache != "hit" {
				mu.Lock()
				nonHits++
				mu.Unlock()
			}
			return lat, ok
		}
	}
	closedLoop(readClients, warmup, op(nil))

	if !cfg.trace {
		l := closedLoop(readClients, cfg.dur(), op(nil))
		rep.attempted, rep.failed = l.attempted, l.failed
		setWindowed(rep, l.lat, l.done, l.elapsed, false)
		rep.set("setup_s", setupS, "s", setupN)
		rep.set("peak_rss_mb", peakRSSMB(), "MB", 0)
		rep.set("success_ratio", rep.successRatio(), "ratio", 0)
		rep.note("hot_read: %d plans x %d spellings, %d clients; %d of %d answers were not cache hits", hotPlanN, hotSpellN, readClients, nonHits, len(l.lat))
		return rep, nil
	}

	err = traceReads(ctx, cfg, env, rep, op, func() func() string {
		replay := plans.stream(cfg.seed * 1000)
		return replay.next
	})
	return rep, err
}

// hotVocabulary draws hot_read's plans from the seed and lists every
// spelling of every plan once: the set-up's warm-up requests.
func hotVocabulary(seed int64) (*hotPlans, []string, error) {
	r, err := newRetail(seed)
	if err != nil {
		return nil, nil, err
	}
	plans, err := newHotPlans(r.Object, seed, hotPlanN, hotSpellN)
	if err != nil {
		return nil, nil, err
	}
	var warm []string
	for _, ts := range plans.texts {
		warm = append(warm, ts...)
	}
	return plans, warm, nil
}

// checkWarm compares the answer to every warm-up request with
// query.Run's.
func checkWarm(rep *report, env *readEnv, warm []string) {
	for i, t := range warm {
		if env.warm[i].status != http.StatusOK {
			rep.check(fmt.Errorf("warm-up query %q: HTTP %d: %s", t, env.warm[i].status, env.warm[i].body))
			continue
		}
		rep.check(checkServed(env.d.obj, t, env.warm[i].body))
	}
}

func runColdRead(ctx context.Context, cfg runConfig) (*report, error) {
	env, setupS, setupN, err := timedSetups(func() (*readEnv, error) {
		return setupRead(ctx, cfg.seed, false, nil)
	}, (*readEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := newReport()

	stream := newColdStream(env.d.obj, cfg.seed)
	type sample struct {
		text string
		body []byte
	}
	var mu sync.Mutex
	var samples []sample
	var genErr error
	hits := 0
	op := func(tr *tracer) func(int) (time.Duration, bool) {
		return func(int) (time.Duration, bool) {
			seq, text, err := stream.next()
			if err != nil {
				mu.Lock()
				genErr = err
				mu.Unlock()
				return 0, false
			}
			s := tr.request("http.roundtrip")
			res, err := get(env.client, env.d.url, text)
			lat := tr.end(s)
			ok := err == nil && res.status == http.StatusOK
			mu.Lock()
			if ok && res.cache == "hit" {
				hits++
			}
			// A seeded sample of answers is kept for checking: which
			// sequence numbers are sampled depends only on the seed.
			if ok && len(samples) < coldChecks && sampled(cfg.seed, seq) {
				samples = append(samples, sample{text, res.body})
			}
			mu.Unlock()
			return lat, ok
		}
	}
	closedLoop(readClients, warmup, op(nil))

	if !cfg.trace {
		l := closedLoop(readClients, cfg.dur(), op(nil))
		if genErr != nil {
			return nil, genErr
		}
		rep.attempted, rep.failed = l.attempted, l.failed
		setWindowed(rep, l.lat, l.done, l.elapsed, false)
		rep.set("setup_s", setupS, "s", setupN)
		rep.set("peak_rss_mb", peakRSSMB(), "MB", 0)
		rep.set("success_ratio", rep.successRatio(), "ratio", 0)
		for _, s := range samples {
			rep.check(checkServed(env.d.obj, s.text, s.body))
		}
		if hits > 0 {
			rep.check(fmt.Errorf("cold_read: %d answers were cache hits; every plan must be new", hits))
		}
		rep.note("cold_read: %d distinct plans issued, %d clients, %d answers checked against query.Run", stream.n, readClients, len(samples))
		return rep, nil
	}

	var replayErr error
	err = traceReads(ctx, cfg, env, rep, op, func() func() string {
		replay := newColdStream(env.d.obj, cfg.seed)
		return func() string {
			_, t, err := replay.next()
			if err != nil && replayErr == nil {
				replayErr = err
			}
			return t
		}
	})
	if genErr != nil {
		return nil, genErr
	}
	if replayErr != nil {
		return nil, replayErr
	}
	for _, s := range samples {
		rep.check(checkServed(env.d.obj, s.text, s.body))
	}
	return rep, err
}

// sampled picks about one request in ten by a hash of seed and sequence
// number.
func sampled(seed int64, seq int) bool {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(seq)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return h%10 == 0
}

// traceReads is the traced run of a read workload. First the closed
// loop runs in short slices that alternate between untraced and traced
// (a root span around every HTTP round trip); the two sets' p50s give
// the tracing overhead. Then one goroutine replays the workload's seeded
// stream through each layer's public functions (see replayer), and
// finally times the handler and the front end alone, counting their
// allocations. newStream returns a fresh copy of the request stream.
func traceReads(ctx context.Context, cfg runConfig, env *readEnv, rep *report,
	op func(*tracer) func(int) (time.Duration, bool), newStream func() func() string) error {
	tr := newTracer()
	before := readCounters()
	mem := readMem()
	u, t := alternate(cfg.dur()*2/5, 250*time.Millisecond, func(traced bool, d time.Duration) loopResult {
		if traced {
			return closedLoop(readClients, d, op(tr))
		}
		return closedLoop(readClients, d, op(nil))
	})
	gc := memSince(mem)
	setCacheLayer(rep, before.since())
	setRuntimeLayer(rep, gc, len(u.lat)+len(t.lat))
	rep.attempted = u.attempted + t.attempted
	rep.failed = u.failed + t.failed
	rep.set("workload.plan_repeat_share", repeatShare(env.d.obj, newStream(), min(int(rep.attempted), 20000)), "ratio", 0)

	rp, err := newReplayer(ctx, env.d.obj, tr)
	if err != nil {
		return err
	}
	defer rp.close()
	next := newStream()
	deadline := time.Now().Add(cfg.dur() * 2 / 5)
	for time.Now().Before(deadline) {
		rp.replay(next())
	}
	rep.attempted += int64(rp.n)
	rep.failed += int64(rp.failed)
	rp.report(rep)
	setBudgetLayer(rep, env.d.srv)

	// The handler alone, in-process, on one more fresh server that
	// receives the same sequence from its start (the allocation count
	// includes the in-process request and recorder); then the front end
	// (parse + normalize) alone.
	again, err := serve.New(serve.Config{Object: env.d.obj, Timeout: 5 * time.Second})
	if err != nil {
		return err
	}
	h := again.Handler()
	next = newStream()
	var handlerNs []int64
	allocs, bytes := allocsPerCall(1<<30, cfg.dur()/10, func(int) {
		text := next()
		t0 := time.Now()
		serveOnce(h, text)
		handlerNs = append(handlerNs, time.Since(t0).Nanoseconds())
	})
	rep.set("serve.handler_us", pct(usOf(handlerNs), 50), "us", len(handlerNs))
	rep.set("serve.allocs_per_req", allocs, "count", len(handlerNs))
	rep.set("serve.bytes_per_req", bytes, "B", len(handlerNs))
	next = newStream()
	fe, _ := allocsPerCall(1<<30, cfg.dur()/10, func(int) {
		if q, err := query.Parse(next()); err == nil {
			_, _, _ = query.Normalize(env.d.obj, q) // the replay already counted texts that do not bind
		}
	})
	rep.set("query.frontend_allocs", fe, "count", 0)
	rep.set("reads.qps", u.opsPerSec(), "1/s", len(u.lat))
	rep.set("reads.p50_ms", pct(msOf(u.lat), 50), "ms", len(u.lat))
	return finishTrace(cfg, rep, tr, u.lat, t.lat)
}

// repeatShare is the share of the stream's first n requests whose
// normalized plan an earlier request already had.
func repeatShare(obj *core.StatObject, next func() string, n int) float64 {
	seen := map[string]bool{}
	repeats := 0
	for i := 0; i < n; i++ {
		key, err := planKey(obj, next())
		if err != nil {
			continue
		}
		if seen[key] {
			repeats++
		}
		seen[key] = true
	}
	return float64(repeats) / float64(max(n, 1))
}

// alternate runs phase in slices of about slice, alternating untraced
// and traced, for total, and merges each mode's results.
func alternate(total, slice time.Duration, phase func(traced bool, d time.Duration) loopResult) (untraced, traced loopResult) {
	n := int(total / slice)
	if n < 2 {
		n = 2
	}
	n &^= 1
	for i := 0; i < n; i++ {
		r := phase(i%2 == 1, total/time.Duration(n))
		dst := &untraced
		if i%2 == 1 {
			dst = &traced
		}
		dst.lat = append(dst.lat, r.lat...)
		dst.attempted += r.attempted
		dst.failed += r.failed
		dst.elapsed += r.elapsed
	}
	return untraced, traced
}

// finishTrace reports the tracing overhead — how much the median
// operation latency of the traced phase exceeds the untraced one's —
// and writes the span dump and the self-time table.
func finishTrace(cfg runConfig, rep *report, tr *tracer, untraced, traced []int64) error {
	um := pct(msOf(untraced), 50)
	tm := pct(msOf(traced), 50)
	overhead := 0.0
	if um > 0 {
		overhead = 100 * (tm - um) / um
	}
	rep.set("trace.overhead_pct", overhead, "%", len(traced))
	rows := selfTable(tr.spans)
	var b strings.Builder
	printSelfTable(&b, rows)
	rep.notes = append(rep.notes, strings.Split(strings.TrimRight(b.String(), "\n"), "\n")...)
	path, err := tr.dump(cfg.workload, cfg.seed, overhead, rows)
	if err != nil {
		return err
	}
	rep.note("trace: %d spans written to %s; untraced p50 %.4f ms, traced p50 %.4f ms, overhead %.2f%%", len(tr.spans), path, um, tm, overhead)
	return nil
}
