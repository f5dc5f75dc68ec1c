package core

import (
	"context"
	"fmt"

	"statcube/internal/obs"
)

// This file implements "automatic aggregation" [S82] (Section 5.1,
// Figure 13): because the semantics of a statistical object are explicit,
// a query need only state a minimum of conditions — circling "80" on the
// year node and "engineer" on the professional-class node — and everything
// else is inferred:
//
//   - dimensions not mentioned are summarized over all their values;
//   - a condition at a non-leaf level summarizes over the descendants of
//     the chosen values;
//   - the summary measure and its function come from the S-node.

// Pick is one circled condition: values of one level of one dimension's
// classification. A zero Level means the leaf level.
//
// WhereOnly marks a condition that only restricts (a WHERE name that is
// not also grouped BY): the dimension is collapsed out of the result —
// sliced away when one value is picked, summed over when several are —
// unless it is the last dimension left. The zero value keeps the
// dimension in the result, grouped by the picked values, as a BY name
// does.
type Pick struct {
	Level     string
	Values    []Value
	WhereOnly bool
}

// AutoQuery is a concise statistical query: conditions per dimension, and
// the measure to report (optional when the object has a single measure).
type AutoQuery struct {
	Measure string
	Where   map[string]Pick
}

// AutoAggregate evaluates the query, returning a statistical object whose
// dimensions are the mentioned ones — restricted to the picked values,
// rolled up to the picked levels — with all other dimensions summarized
// away and WhereOnly dimensions collapsed. Summarizability is checked
// along the way.
func (o *StatObject) AutoAggregate(q AutoQuery) (*StatObject, error) {
	return o.AutoAggregateCtx(context.Background(), q, nil)
}

// AutoAggregateSpan is AutoAggregate with tracing: the single store scan
// opens a "scan:fold" child span on sp annotated with the cells it read,
// the groups it emitted and the dimensions it selected, rolled up and
// dropped. A nil span evaluates identically with tracing off — Span
// methods are nil-safe.
func (o *StatObject) AutoAggregateSpan(q AutoQuery, sp *obs.Span) (*StatObject, error) {
	return o.AutoAggregateCtx(context.Background(), q, sp)
}

// AutoAggregateCtx is AutoAggregate with a context and optional tracing
// span — the cancellable, budget-governed entry point. The query is
// compiled into one fold plan (see fold.go) and answered by a single pass
// over the base cells; no intermediate object is built. The context is
// polled while the plan is compiled and every few thousand cells of the
// pass; a governor on ctx is charged for the result's cells.
//
// The plan runs the checks the equivalent operator chain would — S-select
// or S-select-level plus S-aggregate per mentioned dimension in sorted
// order, S-project of the unmentioned ones, then the WhereOnly collapse —
// in the same order, and fails with the same errors.
func (o *StatObject) AutoAggregateCtx(ctx context.Context, q AutoQuery, sp *obs.Span) (*StatObject, error) {
	if len(q.Where) == 0 {
		return nil, fmt.Errorf("core: AutoAggregate with no conditions; use Total for the grand total")
	}
	p, err := o.compileFold(ctx, q)
	if err != nil {
		return nil, err
	}
	return o.fold(ctx, p, sp)
}

// AutoScalar evaluates a query whose every condition picks a single value,
// returning the one inferred number — "the average income of engineers in
// 1980". The measure defaults to the object's only measure.
func (o *StatObject) AutoScalar(q AutoQuery) (float64, error) {
	measure := q.Measure
	if measure == "" {
		if len(o.measures) != 1 {
			return 0, fmt.Errorf("core: object has %d measures; AutoScalar needs Measure set", len(o.measures))
		}
		measure = o.measures[0].Name
	}
	if _, ok := o.byName[measure]; !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownMeasure, measure)
	}
	for dim, pick := range q.Where {
		if len(pick.Values) != 1 {
			return 0, fmt.Errorf("core: AutoScalar condition on %q picks %d values, want 1", dim, len(pick.Values))
		}
	}
	res, err := o.AutoAggregate(q)
	if err != nil {
		return 0, err
	}
	return res.Total(measure)
}
