package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"statcube/internal/cube"
	"statcube/internal/obs"
	"statcube/internal/snapshot"
	"statcube/internal/writer"
)

// append_read: one loader POSTs batchRows-row batches to /append on a
// fixed schedule (an open loop: each append is timed from when it was
// due), beside one closed-loop reader that sends the hot_read stream with
// a grand-total probe every probeEvery-th request.
const (
	appendRate = 40 // batches per second; the loader's capacity is several times this
	probeEvery = 8
	// probeText returns the grand total split by month; the cells sum
	// to the total. (A bare "SHOW quantity sold" is refused by the
	// engine: automatic aggregation needs a condition.)
	probeText = "SHOW quantity sold BY month"
)

// appendEnv is one set-up of append_read: a daemon with the durable write
// path, its cache warmed with the hot plans.
type appendEnv struct {
	*readEnv
	loader *http.Client
}

func (e *appendEnv) close() {
	e.loader.CloseIdleConnections()
	e.readEnv.close()
}

// appendOutcome is the loader's record of one scheduled batch.
type appendOutcome struct {
	batch int
	gen   uint64
	lat   time.Duration // completion minus due time
	done  time.Duration // completion, since the phase started
	late  time.Duration // send time minus due time
	err   error
}

// probeOutcome is one grand-total read.
type probeOutcome struct {
	gen   uint64
	total float64
}

func runAppendRead(ctx context.Context, cfg runConfig) (*report, error) {
	plans, warm, err := hotVocabulary(cfg.seed)
	if err != nil {
		return nil, err
	}
	env, setupS, setupN, err := timedSetups(func() (*appendEnv, error) {
		e, err := setupRead(ctx, cfg.seed, true, warm)
		if err != nil {
			return nil, err
		}
		return &appendEnv{readEnv: e, loader: newClient(1)}, nil
	}, (*appendEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := newReport()
	checkWarm(rep, env.readEnv, warm)

	reader := plans.stream(cfg.seed * 1000)
	batches := newBatches(cfg.seed, int(math.Ceil((cfg.seconds+warmup.Seconds())*appendRate))+16)
	led := &ledger{base: sumVals(env.d.base.Vals)}
	led.totals = map[uint64]float64{1: led.base}
	// The warm-up's appends count in the ledger (they are checked for
	// durability like the rest) but not in the metrics.
	first := len(appendPhase(env, batches, 0, warmup, reader, nil, led).outs)

	if !cfg.trace {
		ph := appendPhase(env, batches, first, cfg.dur(), reader, nil, led)
		rep.attempted, rep.failed = ph.attempted(), ph.failed()
		rep.check(checkDurable(ctx, env.d, led.acked))
		lat, done := ph.appendLat()
		setWindowed(rep, lat, done, ph.elapsed, false)
		rep.set("setup_s", setupS, "s", setupN)
		rep.set("peak_rss_mb", peakRSSMB(), "MB", 0)
		rep.set("success_ratio", rep.successRatio(), "ratio", 0)
		stale, probes := led.stale()
		rep.note("append_read: %d of %d scheduled appends acknowledged at %d/s, %d rows each; reader %.0f q/s, %d of %d grand-total probes stale",
			len(lat), len(ph.outs), appendRate, batchRows, ph.reads.opsPerSec(), stale, probes)
		return rep, nil
	}

	// The traced run: the mixed phase in half-second slices alternating
	// untraced and traced (a root span around every round trip) for two
	// thirds of the time, then the acknowledged batches replayed through
	// the write path's layers.
	tr := newTracer()
	var u, t phaseResult
	next := first
	slices := max(2, int(cfg.seconds*2/3*2)) &^ 1
	for i := 0; i < slices; i++ {
		dst, rtr := &u, (*tracer)(nil)
		if i%2 == 1 {
			dst, rtr = &t, tr
		}
		ph := appendPhase(env, batches, next, cfg.dur()*2/3/time.Duration(slices), reader, rtr, led)
		next += len(ph.outs)
		dst.merge(ph)
	}
	phase := cfg.dur() / 3
	rep.attempted = u.attempted() + t.attempted()
	rep.failed = u.failed() + t.failed()
	rep.check(checkDurable(ctx, env.d, led.acked))

	setCacheLayer(rep, u.delta)
	setRuntimeLayer(rep, u.gc, len(u.reads.lat)+len(u.outs))
	setBudgetLayer(rep, env.d.srv)
	stale, probes := led.stale()
	if probes > 0 {
		rep.set("serve.stale_read_ratio", float64(stale)/float64(probes), "ratio", probes)
	}
	rep.set("gen.append_late_ms", pct(msOf(append(u.late(), t.late()...)), 100), "ms", len(u.outs)+len(t.outs))
	rep.set("writer.retries", float64(u.delta["writer.retries"]+t.delta["writer.retries"]), "count", 0)
	rep.set("writer.aborted_loads", float64(u.delta["writer.aborted_loads"]+t.delta["writer.aborted_loads"]), "count", 0)
	rep.set("writer.publish_ms", obs.Default().Histogram("writer.publish_ns").Quantile(0.5)/1e6, "ms", 0)
	ulat, _ := u.appendLat()
	rows := len(ulat) * batchRows
	factBytes := float64(rows * factRowBytes)
	rep.set("workload.rows_per_batch", batchRows, "count", 0)
	rep.set("workload.appended_fact_bytes", factBytes, "B", 0)
	if rows > 0 {
		rep.set("cube.delta_cells_per_row", float64(u.delta["writer.delta_cells"])/float64(rows), "count", 0)
		rep.set("write_amp", float64(u.delta["snapshot.bytes_written"])/factBytes, "ratio", 0)
	}
	if saves := u.delta["snapshot.saves"]; saves > 0 {
		rep.set("snapshot.bytes_per_save", float64(u.delta["snapshot.bytes_written"])/float64(saves), "B", int(saves))
	}
	amp, err := spaceAmp(env.d.dir)
	if err != nil {
		return nil, err
	}
	rep.set("snapshot.space_amp", amp, "ratio", 0)
	if err := replayAppends(ctx, env.d, led.acked, phase, tr, rep); err != nil {
		return nil, err
	}
	rep.note("append_read: reader %.0f q/s beside %d appends; %d of %d grand-total probes stale", u.reads.opsPerSec(), len(u.outs), stale, probes)
	rep.set("reads.qps", u.reads.opsPerSec(), "1/s", len(u.reads.lat))
	rep.set("reads.p50_ms", pct(msOf(u.reads.lat), 50), "ms", len(u.reads.lat))
	return rep, finishTrace(cfg, rep, tr, u.reads.lat, t.reads.lat)
}

// ledger follows what the loader got acknowledged across phases: the
// batches, the expected grand total per published generation, and the
// probes to judge against them.
type ledger struct {
	base    float64
	running float64
	totals  map[uint64]float64
	acked   []appendBatch
	probes  []probeOutcome
}

// stale counts grand-total probes whose answer differs from the total
// of the generation the reply names.
func (l *ledger) stale() (stale, probes int) {
	for _, p := range l.probes {
		if want, ok := l.totals[p.gen]; !ok || want != p.total {
			stale++
		}
	}
	return stale, len(l.probes)
}

// phaseResult is what one mixed append/read phase measured.
type phaseResult struct {
	outs    []appendOutcome
	reads   loopResult
	elapsed time.Duration
	delta   counters
	gc      memDelta
}

// merge adds another phase's results to p.
func (p *phaseResult) merge(o phaseResult) {
	p.outs = append(p.outs, o.outs...)
	p.reads.lat = append(p.reads.lat, o.reads.lat...)
	p.reads.attempted += o.reads.attempted
	p.reads.failed += o.reads.failed
	p.reads.elapsed += o.reads.elapsed
	p.elapsed += o.elapsed
	if p.delta == nil {
		p.delta = counters{}
	}
	for n, v := range o.delta {
		p.delta[n] += v
	}
	p.gc.mallocs += o.gc.mallocs
	p.gc.bytes += o.gc.bytes
	p.gc.gcCycles += o.gc.gcCycles
	p.gc.pause += o.gc.pause
}

func (p phaseResult) attempted() int64 { return int64(len(p.outs)) + p.reads.attempted }

func (p phaseResult) failed() int64 {
	n := p.reads.failed
	for _, o := range p.outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

// appendLat is the latency of each acknowledged append, from its due
// time, and when it completed.
func (p phaseResult) appendLat() (lat, done []int64) {
	for _, o := range p.outs {
		if o.err == nil {
			lat = append(lat, o.lat.Nanoseconds())
			done = append(done, o.done.Nanoseconds())
		}
	}
	return lat, done
}

func (p phaseResult) late() []int64 {
	out := make([]int64, len(p.outs))
	for i, o := range p.outs {
		out[i] = o.late.Nanoseconds()
	}
	return out
}

// appendPhase runs the loader from batch first on its fixed schedule
// for d, beside one closed-loop reader, and records acknowledgements in
// led.
func appendPhase(env *appendEnv, batches []appendBatch, first int, d time.Duration, reader *hotStream, tr *tracer, led *ledger) phaseResult {
	before := readCounters()
	mem := readMem()
	res := phaseResult{outs: make([]appendOutcome, 0, int(d.Seconds()*appendRate)+1)}
	var probes []probeOutcome
	stopped := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	go func() { // the loader
		defer wg.Done()
		defer close(stopped)
		for i := first; i < len(batches); i++ {
			due := t0.Add(time.Duration(float64(i-first) * float64(time.Second) / appendRate))
			if due.Sub(t0) >= d {
				return
			}
			time.Sleep(time.Until(due))
			sent := time.Now()
			s := tr.request("append.roundtrip")
			st, err := postAppend(env.loader, env.d.url, batches[i])
			tr.end(s)
			res.outs = append(res.outs, appendOutcome{batch: i, gen: st.Generation, lat: time.Since(due), done: time.Since(t0), late: sent.Sub(due), err: err})
		}
	}()
	n := 0
	res.reads = closedLoopUntil(stopped, func() (time.Duration, bool) {
		n++
		text := probeText
		if n%probeEvery != 0 {
			text = reader.next()
		}
		s := tr.request("http.roundtrip")
		r, err := get(env.client, env.d.url, text)
		lat := tr.end(s)
		if err != nil || r.status != http.StatusOK {
			return lat, false
		}
		if text == probeText {
			total, _, err := resultTotal(r.body)
			if err != nil {
				return lat, false
			}
			probes = append(probes, probeOutcome{gen: r.gen, total: total})
		}
		return lat, true
	})
	wg.Wait()
	res.elapsed = time.Since(t0)
	res.gc = memSince(mem)
	res.delta = before.since()
	for _, o := range res.outs {
		if o.err != nil {
			continue
		}
		b := batches[o.batch]
		led.acked = append(led.acked, b)
		led.running += b.total
		led.totals[o.gen] = led.base + led.running
	}
	led.probes = append(led.probes, probes...)
	return res
}

// factRowBytes is the size of one appended fact in its coded form: one
// 8-byte code per dimension and an 8-byte value.
const factRowBytes = 8*3 + 8

func sumVals(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// closedLoopUntil runs one closed-loop client until stop closes.
func closedLoopUntil(stop <-chan struct{}, op func() (time.Duration, bool)) loopResult {
	start := time.Now()
	var res loopResult
	for {
		select {
		case <-stop:
			res.elapsed = time.Since(start)
			return res
		default:
		}
		l, ok := op()
		res.attempted++
		if ok {
			res.lat = append(res.lat, l.Nanoseconds())
		} else {
			res.failed++
		}
	}
}

// checkDurable compares the writer's published generation with a fresh
// materialization of the base plus every acknowledged batch, then closes
// the writer, reopens the store with writer.Open and compares again.
func checkDurable(ctx context.Context, d *daemon, acked []appendBatch) error {
	in := &cube.Input{Card: d.base.Card}
	in.Rows = append(in.Rows, d.base.Rows...)
	in.Vals = append(in.Vals, d.base.Vals...)
	for _, b := range acked {
		in.Rows = append(in.Rows, b.rows...)
		in.Vals = append(in.Vals, b.vals...)
	}
	want, err := cube.Materialize(in, nil)
	if err != nil {
		return err
	}
	h := d.wr.Acquire()
	same := h.Set().Identical(want)
	gen := h.Generation()
	h.Release()
	if !same {
		return fmt.Errorf("append_read: generation %d differs from base + %d acknowledged batches", gen, len(acked))
	}
	if err := d.wr.Close(ctx); err != nil {
		return err
	}
	d.wr = nil
	re, err := writer.Open(ctx, writer.Config{Store: d.store, Name: snapName, Base: d.base})
	if err != nil {
		return fmt.Errorf("append_read: reopening the store: %w", err)
	}
	defer re.Close(ctx)
	h = re.Acquire()
	defer h.Release()
	if !h.Set().Identical(want) {
		return fmt.Errorf("append_read: reopened generation %d differs from base + %d acknowledged batches", h.Generation(), len(acked))
	}
	return nil
}

// spaceAmp is the bytes the store retains on disk over the size of its
// newest generation (the live cube's encoding).
func spaceAmp(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total, newest int64
	var newestName string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
		if filepath.Ext(e.Name()) == ".snap" && e.Name() > newestName {
			newestName, newest = e.Name(), info.Size()
		}
	}
	if newest == 0 {
		return 0, fmt.Errorf("append_read: no snapshot in %s", dir)
	}
	return float64(total) / float64(newest), nil
}

// replayAppends replays the acknowledged batches, for at most d, through
// the write path's layers with a span around each call: a shadow writer
// on its own store receives the same batch sequence through Append and
// Flush, and each batch is also staged by hand — MaterializedSet.Clone,
// AppendRowsCtx and cube.SaveMaterialized — on a copy of the shadow's
// published generation.
func replayAppends(ctx context.Context, d *daemon, acked []appendBatch, limit time.Duration, tr *tracer, rep *report) error {
	dir, err := os.MkdirTemp("", "perfbench-shadow-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	shadowStore, err := snapshot.OpenStore(filepath.Join(dir, "writer"))
	if err != nil {
		return err
	}
	copyStore, err := snapshot.OpenStore(filepath.Join(dir, "copy"))
	if err != nil {
		return err
	}
	shadow, err := writer.Open(ctx, writer.Config{Store: shadowStore, Name: snapName, Base: d.base})
	if err != nil {
		return err
	}
	defer shadow.Close(ctx)

	var flushNs, cloneNs, deltaNs, saveNs []int64
	deadline := time.Now().Add(limit)
	for _, b := range acked {
		if time.Now().After(deadline) {
			break
		}
		root := tr.request("append.replay")
		h := shadow.Acquire()
		s := tr.child(root, "cube.clone")
		staging := h.Set().Clone()
		cloneNs = append(cloneNs, tr.end(s).Nanoseconds())
		h.Release()
		s = tr.child(root, "cube.delta")
		_, err := staging.AppendRowsCtx(ctx, b.rows, b.vals)
		deltaNs = append(deltaNs, tr.end(s).Nanoseconds())
		if err != nil {
			return err
		}
		s = tr.child(root, "snapshot.save")
		_, err = cube.SaveMaterialized(ctx, copyStore, snapName, staging)
		saveNs = append(saveNs, tr.end(s).Nanoseconds())
		if err != nil {
			return err
		}
		s = tr.child(root, "writer.append")
		err = shadow.Append(ctx, b.rows, b.vals)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.child(root, "writer.flush")
		_, err = shadow.Flush(ctx)
		flushNs = append(flushNs, tr.end(s).Nanoseconds())
		if err != nil {
			return err
		}
		tr.end(root)
	}
	rep.set("writer.flush_ms", pct(msOf(flushNs), 50), "ms", len(flushNs))
	rep.set("cube.clone_ms", pct(msOf(cloneNs), 50), "ms", len(cloneNs))
	rep.set("cube.delta_ms", pct(msOf(deltaNs), 50), "ms", len(deltaNs))
	rep.set("snapshot.save_ms", pct(msOf(saveNs), 50), "ms", len(saveNs))
	return nil
}
