package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records the benchmark's own spans around its calls into the
// program's layers: name, start, end, the span that caused it and the
// request it belongs to. Spans stay in memory until the run writes them
// out. A nil *tracer records nothing, which is how untraced runs call
// the same code.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	id, parent, req int64
	name            string
	start           time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request opens a root span under a fresh request id.
func (t *tracer) request(name string) openSpan {
	if t == nil {
		return openSpan{start: time.Now()}
	}
	return openSpan{id: t.ids.Add(1), req: t.reqs.Add(1), name: name, start: time.Now()}
}

// child opens a span caused by parent, in parent's request.
func (t *tracer) child(parent openSpan, name string) openSpan {
	if t == nil {
		return openSpan{start: time.Now()}
	}
	return openSpan{id: t.ids.Add(1), parent: parent.id, req: parent.req, name: name, start: time.Now()}
}

// end closes s and returns its duration.
func (t *tracer) end(s openSpan) time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if t == nil {
		return d
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: s.start.Sub(t.epoch).Nanoseconds(), End: now.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
	return d
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, keyed by span id.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"self_total_ms"`
	P50Us   float64 `json:"self_p50_us"`
	P99Us   float64 `json:"self_p99_us"`
	Share   float64 `json:"share"`
}

// selfTable aggregates self time by span name, largest total first.
func selfTable(spans []span) []layerRow {
	self := selfTimes(spans)
	by := map[string][]float64{}
	var all float64
	for _, s := range spans {
		v := float64(self[s.ID])
		by[s.Name] = append(by[s.Name], v)
		all += v
	}
	rows := make([]layerRow, 0, len(by))
	for name, xs := range by {
		var sum float64
		for _, v := range xs {
			sum += v
		}
		r := layerRow{Name: name, Count: len(xs), TotalMs: sum / 1e6, P50Us: pct(xs, 50) / 1e3, P99Us: pct(xs, 99) / 1e3}
		if all > 0 {
			r.Share = sum / all
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TotalMs > rows[j].TotalMs })
	return rows
}

// printSelfTable writes the table in aligned text.
func printSelfTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s %12s %7s\n", "span (self time)", "count", "total ms", "p50 us", "p99 us", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f %12.3f %6.1f%%\n", r.Name, r.Count, r.TotalMs, r.P50Us, r.P99Us, 100*r.Share)
	}
}

// maxDumpSpans caps the spans written to the dump file; the self-time
// table always covers every span recorded.
const maxDumpSpans = 200000

// dump writes the spans and the self-time table of one traced run to
// .bench_build/trace/<workload>-seed<seed>.json under the working
// directory and returns the path.
func (t *tracer) dump(workload string, seed int64, overheadPct float64, rows []layerRow) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	spans := t.spans
	if len(spans) > maxDumpSpans {
		spans = spans[:maxDumpSpans]
	}
	b, err := json.Marshal(struct {
		Workload    string     `json:"workload"`
		Seed        int64      `json:"seed"`
		OverheadPct float64    `json:"trace_overhead_pct"`
		Recorded    int        `json:"spans_recorded"`
		SelfTime    []layerRow `json:"self_time"`
		Spans       []span     `json:"spans"`
	}{workload, seed, overheadPct, len(t.spans), rows, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
