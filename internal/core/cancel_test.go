package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"statcube/internal/budget"
)

// countdownCtx cancels itself after a fixed number of Err polls, hitting
// the group-by operators at deterministic interior points.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(polls int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(polls))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestOpsPreCanceled: a done context aborts S-project and S-aggregation
// with the typed taxonomy and no result object.
func TestOpsPreCanceled(t *testing.T) {
	o := wideObject(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := o.SProjectCtx(ctx, nil, "dim1"); err == nil || res != nil {
		t.Errorf("SProjectCtx: res=%v err=%v", res, err)
	} else if !budget.IsCanceled(err) {
		t.Errorf("SProjectCtx: %v is not ErrCanceled", err)
	}
	if res, err := o.SAggregateCtx(ctx, nil, "region", "state"); err == nil || res != nil {
		t.Errorf("SAggregateCtx: res=%v err=%v", res, err)
	} else if !budget.IsCanceled(err) {
		t.Errorf("SAggregateCtx: %v is not ErrCanceled", err)
	}
	if res, err := o.AutoAggregateCtx(ctx, AutoQuery{Where: map[string]Pick{"region": {Level: "state", Values: []Value{"st-0"}}}}, nil); err == nil || res != nil {
		t.Errorf("AutoAggregateCtx: res=%v err=%v", res, err)
	} else if !budget.IsCanceled(err) {
		t.Errorf("AutoAggregateCtx: %v is not ErrCanceled", err)
	}
}

// TestOpsMidFlightCancel drives the operators through a countdown context
// on both the sequential and the forced-parallel path: every abort must be
// typed, with no partial object, and completion must match the un-canceled
// result bit for bit.
func TestOpsMidFlightCancel(t *testing.T) {
	o := wideObject(t)
	want, err := o.SProject("dim1", "dim2")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		forceParallel(t, workers)
		sawCancel := false
		for polls := 0; polls < 12; polls++ {
			ctx := newCountdownCtx(polls)
			res, err := o.SProjectCtx(ctx, nil, "dim1", "dim2")
			if err != nil {
				sawCancel = true
				if !budget.IsCanceled(err) {
					t.Fatalf("w=%d polls=%d: %v is not ErrCanceled", workers, polls, err)
				}
				if res != nil {
					t.Fatalf("w=%d polls=%d: partial object escaped", workers, polls)
				}
				continue
			}
			cellsIdentical(t, want, res)
		}
		if !sawCancel {
			t.Errorf("w=%d: countdown never fired; test lost its bite", workers)
		}
	}
}

// TestOpsCellQuota: a governor's cell quota bounds a group-by's output.
func TestOpsCellQuota(t *testing.T) {
	o := wideObject(t)
	gov := budget.NewGovernor(budget.Limits{MaxCells: 3})
	ctx := budget.WithGovernor(context.Background(), gov)
	_, err := o.SProjectCtx(ctx, nil, "dim1", "dim2")
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Errorf("cell quota not enforced: %v", err)
	}
	// A quota with headroom admits the same call.
	gov2 := budget.NewGovernor(budget.Limits{MaxCells: 1 << 20})
	ctx2 := budget.WithGovernor(context.Background(), gov2)
	res, err := o.SProjectCtx(ctx2, nil, "dim1", "dim2")
	if err != nil {
		t.Fatalf("admitting quota rejected the fold: %v", err)
	}
	if gov2.CellsUsed() != int64(res.Cells()) {
		t.Errorf("governor charged %d cells, result has %d", gov2.CellsUsed(), res.Cells())
	}
}

// foldQuery groups wideObject by state and dim0 and sums the rest: 5,760
// allowed coordinates, so the fold polls its context mid-pass.
var foldQuery = AutoQuery{Where: map[string]Pick{
	"region": {Level: "state", Values: []Value{"st-0", "st-1", "st-2", "st-3"}},
	"dim0":   {Values: []Value{"d0-00", "d0-01", "d0-02", "d0-03", "d0-04", "d0-05", "d0-06", "d0-07", "d0-08", "d0-09"}},
}}

// TestFoldMidFlightCancel drives the fold through a countdown context on
// both access paths: every abort is typed with no partial object, aborts
// land inside the pass (after the plan's polls; on the walk, after cells
// were folded), and completion matches the un-canceled result bit for
// bit.
func TestFoldMidFlightCancel(t *testing.T) {
	o := wideObject(t)
	want, err := o.AutoAggregate(foldQuery)
	if err != nil {
		t.Fatal(err)
	}
	planPolls := len(o.Schema().Dimensions()) // one per mentioned and per summarized dimension
	for _, path := range []int{pathWalk, pathFilter} {
		forceFoldPath(t, path)
		lastCancel := -1
		for polls := 0; polls < 12; polls++ {
			res, err := o.AutoAggregateCtx(newCountdownCtx(polls), foldQuery, nil)
			if err != nil {
				if !budget.IsCanceled(err) {
					t.Fatalf("path %d polls=%d: %v is not ErrCanceled", path, polls, err)
				}
				if res != nil {
					t.Fatalf("path %d polls=%d: partial object escaped", path, polls)
				}
				lastCancel = polls
				continue
			}
			cellsIdentical(t, want, res)
		}
		// The pass polls first before its first cell; the walk's 5,760
		// probes poll again after 4,096 of them.
		inside := planPolls
		if path == pathWalk {
			inside++
		}
		if lastCancel < inside {
			t.Errorf("path %d: last cancel after %d polls; none landed inside the pass", path, lastCancel)
		}
	}
}

// TestFoldCellQuota: a governor's cell quota bounds the fold's output,
// and an admitting quota is charged exactly the result's cells.
func TestFoldCellQuota(t *testing.T) {
	o := wideObject(t)
	gov := budget.NewGovernor(budget.Limits{MaxCells: 3})
	res, err := o.AutoAggregateCtx(budget.WithGovernor(context.Background(), gov), foldQuery, nil)
	if !errors.Is(err, budget.ErrBudgetExceeded) || res != nil {
		t.Errorf("cell quota not enforced: res=%v err=%v", res, err)
	}
	gov2 := budget.NewGovernor(budget.Limits{MaxCells: 1 << 20})
	res, err = o.AutoAggregateCtx(budget.WithGovernor(context.Background(), gov2), foldQuery, nil)
	if err != nil {
		t.Fatalf("admitting quota rejected the fold: %v", err)
	}
	if gov2.CellsUsed() != int64(res.Cells()) {
		t.Errorf("governor charged %d cells, result has %d", gov2.CellsUsed(), res.Cells())
	}
}
