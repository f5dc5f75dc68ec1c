package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// testPayload builds a payload of roughly n encoded bytes.
func testPayload(n int) *payload {
	if n < 2 {
		n = 2
	}
	return &payload{json: make([]byte, n/2), bin: make([]byte, n-n/2)}
}

// TestCacheSingleflight: concurrent requests for one key share a single
// fill; everyone gets the same payload and exactly one fill runs.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(4, 1<<20)
	var fills atomic.Int64
	gate := make(chan struct{})
	const waiters = 32

	var wg sync.WaitGroup
	payloads := make([]*payload, waiters)
	hits := make([]bool, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payloads[i], hits[i], errs[i] = c.GetOrFill(context.Background(), "k", func(context.Context) (*payload, error) {
				<-gate // hold the fill open so the others must coalesce
				fills.Add(1)
				return testPayload(64), nil
			})
		}(i)
	}
	close(gate)
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("fills = %d, want 1 (singleflight)", got)
	}
	var first *payload
	misses := 0
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if payloads[i] == nil {
			t.Fatalf("request %d: nil payload", i)
		}
		if first == nil {
			first = payloads[i]
		} else if payloads[i] != first {
			t.Fatalf("request %d got a different payload pointer: fills were not shared", i)
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (the fill leader)", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+coalesced", st, waiters-1)
	}
}

// TestCacheConcurrentMixedKeys hammers the cache from many goroutines
// over a small key set under -race; every fill result must be served
// consistently and the byte ledger must equal the stored entries.
func TestCacheConcurrentMixedKeys(t *testing.T) {
	c := NewCache(8, 1<<20)
	const workers, iters = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (w+i)%7)
				pay, _, err := c.GetOrFill(context.Background(), key, func(context.Context) (*payload, error) {
					return testPayload(128), nil
				})
				if err != nil || pay == nil {
					t.Errorf("GetOrFill(%s): pay=%v err=%v", key, pay, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != 7 {
		t.Fatalf("entries = %d, want 7", st.Entries)
	}
	wantBytes := int64(7) * testPayload(128).size()
	if st.Bytes != wantBytes {
		t.Fatalf("bytes reserved = %d, want %d", st.Bytes, wantBytes)
	}
}

// TestCacheEvictionTinyBudget: under a budget that fits only two
// entries, older entries are evicted LRU-first and the ledger never
// exceeds the budget.
func TestCacheEvictionTinyBudget(t *testing.T) {
	per := testPayload(512).size()
	c := NewCache(1, 2*per) // exactly two entries fit
	fill := func(context.Context) (*payload, error) { return testPayload(512), nil }

	for i := 0; i < 5; i++ {
		if _, _, err := c.GetOrFill(context.Background(), fmt.Sprintf("k%d", i), fill); err != nil {
			t.Fatalf("fill k%d: %v", i, err)
		}
		if got := c.BytesReserved(); got > 2*per {
			t.Fatalf("after k%d: ledger %d exceeds budget %d", i, got, 2*per)
		}
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	// LRU: the two newest keys survive; k3 is a hit, k0 was evicted.
	if _, hit, _ := c.GetOrFill(context.Background(), "k3", fill); !hit {
		t.Fatalf("k3 should have survived eviction")
	}
	if _, hit, _ := c.GetOrFill(context.Background(), "k0", fill); hit {
		t.Fatalf("k0 should have been evicted")
	}
}

// TestCacheOversizedPayloadServedUncached: a payload larger than the
// whole budget is returned but never stored.
func TestCacheOversizedPayloadServedUncached(t *testing.T) {
	c := NewCache(1, 64)
	pay, hit, err := c.GetOrFill(context.Background(), "big", func(context.Context) (*payload, error) {
		return testPayload(4096), nil
	})
	if err != nil || pay == nil || hit {
		t.Fatalf("oversized fill: pay=%v hit=%v err=%v", pay, hit, err)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized payload was stored: %+v", st)
	}
	// The next request fills again (still uncached), it does not hit.
	if _, hit, _ := c.GetOrFill(context.Background(), "big", func(context.Context) (*payload, error) {
		return testPayload(4096), nil
	}); hit {
		t.Fatalf("oversized payload must not be cached")
	}
}

// TestCacheInvalidateOnGenerationBump: Invalidate drops every entry and
// releases every charged byte; the next request refills.
func TestCacheInvalidateOnGenerationBump(t *testing.T) {
	c := NewCache(4, 1<<20)
	var fills atomic.Int64
	fill := func(context.Context) (*payload, error) {
		fills.Add(1)
		return testPayload(128), nil
	}
	for i := 0; i < 4; i++ {
		if _, _, err := c.GetOrFill(context.Background(), fmt.Sprintf("k%d", i), fill); err != nil {
			t.Fatal(err)
		}
	}
	if _, hit, _ := c.GetOrFill(context.Background(), "k0", fill); !hit {
		t.Fatalf("warm entry should hit before invalidation")
	}
	gen := c.Generation()
	c.Invalidate()
	if c.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", c.Generation(), gen+1)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("invalidation left state behind: %+v", st)
	}
	before := fills.Load()
	if _, hit, _ := c.GetOrFill(context.Background(), "k0", fill); hit {
		t.Fatalf("post-invalidation request must refill, not hit")
	}
	if fills.Load() != before+1 {
		t.Fatalf("post-invalidation request did not fill")
	}
}

// TestCacheFillErrorNotCached: a failed fill reaches every coalesced
// waiter as the same typed error and leaves no entry behind. Unlike the
// success path, a failure is deleted rather than stored, so a request
// arriving after the failure legitimately refills — the test pins the
// no-poisoning invariant, not an exact fill count.
func TestCacheFillErrorNotCached(t *testing.T) {
	c := NewCache(2, 1<<20)
	boom := errors.New("boom")
	var fills atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	const waiters = 8

	var wg sync.WaitGroup
	errs := make([]error, waiters)
	wg.Add(1)
	go func() { // the fill leader: enters the fill, then blocks on gate
		defer wg.Done()
		_, _, errs[0] = c.GetOrFill(context.Background(), "k", func(context.Context) (*payload, error) {
			close(started)
			<-gate
			fills.Add(1)
			return nil, boom
		})
	}()
	<-started // the in-flight entry exists; new arrivals coalesce on it
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrFill(context.Background(), "k", func(context.Context) (*payload, error) {
				fills.Add(1)
				return nil, boom
			})
		}(i)
	}
	close(gate)
	wg.Wait()
	if fills.Load() < 1 {
		t.Fatalf("fills = %d, want >= 1", fills.Load())
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d: err = %v, want boom", i, err)
		}
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("failed fill left cache state: %+v", st)
	}
	// The key refills cleanly afterwards.
	pay, hit, err := c.GetOrFill(context.Background(), "k", func(context.Context) (*payload, error) {
		return testPayload(32), nil
	})
	if err != nil || pay == nil || hit {
		t.Fatalf("retry after failed fill: pay=%v hit=%v err=%v", pay, hit, err)
	}
}

// TestCacheProbationCapsOneShotBytes: a flood of keys that are each
// requested once keeps never-hit bytes within the probation cap (a
// sixteenth of the budget), while a key hit once before the flood keeps
// its entry.
func TestCacheProbationCapsOneShotBytes(t *testing.T) {
	const budget = 32 << 20
	c := NewCache(4, budget)
	fill := func(context.Context) (*payload, error) { return testPayload(8 << 10), nil }
	for i := 0; i < 2; i++ { // stored, then hit: promoted out of probation
		if _, _, err := c.GetOrFill(context.Background(), "hot", fill); err != nil {
			t.Fatal(err)
		}
	}
	capBytes := int64(budget / 16)
	for i := 0; i < 2048; i++ { // 16 MiB of one-shot plans
		if _, _, err := c.GetOrFill(context.Background(), fmt.Sprintf("cold%d", i), fill); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.ProbationBytes > capBytes || st.Bytes > budget {
			t.Fatalf("after cold%d: probation %d bytes (cap %d), total %d", i, st.ProbationBytes, capBytes, st.Bytes)
		}
	}
	if st := c.Stats(); st.ProbationBytes < capBytes/2 {
		t.Errorf("probation holds %d bytes after the flood; the segment should fill toward its cap %d", st.ProbationBytes, capBytes)
	}
	if _, hit, _ := c.GetOrFill(context.Background(), "hot", fill); !hit {
		t.Errorf("the key hit before the flood was evicted by one-shot keys")
	}
	// The newest one-shot entry is still stored: a plan's second request hits.
	if _, hit, _ := c.GetOrFill(context.Background(), "cold2047", fill); !hit {
		t.Errorf("the newest fill was evicted before its second request")
	}
}

// TestCacheProbationEvictsNeverHitFirst: when the whole budget is full,
// never-hit entries go before hit ones, even older hit ones.
func TestCacheProbationEvictsNeverHitFirst(t *testing.T) {
	c := NewCache(2, 4<<20) // probation cap: the 1 MiB floor
	hot := func(context.Context) (*payload, error) { return testPayload(512 << 10), nil }
	cold := func(context.Context) (*payload, error) { return testPayload(64 << 10), nil }
	for i := 0; i < 7; i++ { // seven hit entries: 3.5 MiB
		key := fmt.Sprintf("hot%d", i)
		for j := 0; j < 2; j++ {
			if _, _, err := c.GetOrFill(context.Background(), key, hot); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 12; i++ { // 768 KiB of one-shot entries overflow the budget, not the cap
		if _, _, err := c.GetOrFill(context.Background(), fmt.Sprintf("cold%d", i), cold); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.ProbationBytes == 0 || st.Bytes > 4<<20 {
		t.Fatalf("stats after the flood: %+v", st)
	}
	for i := 0; i < 7; i++ {
		if _, hit, _ := c.GetOrFill(context.Background(), fmt.Sprintf("hot%d", i), hot); !hit {
			t.Errorf("hot%d evicted while never-hit entries remained", i)
		}
	}
}

// TestCacheProbationKeepsOversizedFill: a payload larger than the
// probation cap but within the budget is still stored — its second
// request hits — and storing it evicts no hit entry. The next fill
// trims it like any other never-hit entry.
func TestCacheProbationKeepsOversizedFill(t *testing.T) {
	const budget = 32 << 20
	c := NewCache(4, budget)
	capBytes := int64(budget / 16)
	hot := func(context.Context) (*payload, error) { return testPayload(1 << 20), nil }
	for i := 0; i < 4; i++ { // four hit entries: 4 MiB
		for j := 0; j < 2; j++ {
			if _, _, err := c.GetOrFill(context.Background(), fmt.Sprintf("hot%d", i), hot); err != nil {
				t.Fatal(err)
			}
		}
	}
	big := func(context.Context) (*payload, error) { return testPayload(int(capBytes) + 1<<20), nil }
	if _, hit, err := c.GetOrFill(context.Background(), "big", big); err != nil || hit {
		t.Fatalf("first request for big: hit=%v err=%v", hit, err)
	}
	if _, hit, _ := c.GetOrFill(context.Background(), "big", big); !hit {
		t.Errorf("a payload between the probation cap and the budget missed its second request")
	}
	for i := 0; i < 4; i++ {
		if _, hit, _ := c.GetOrFill(context.Background(), fmt.Sprintf("hot%d", i), hot); !hit {
			t.Errorf("hot%d evicted by storing an oversized never-hit entry", i)
		}
	}
	if _, _, err := c.GetOrFill(context.Background(), "big2", big); err != nil {
		t.Fatal(err)
	}
	small := func(context.Context) (*payload, error) { return testPayload(8 << 10), nil }
	if _, _, err := c.GetOrFill(context.Background(), "small", small); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ProbationBytes > capBytes {
		t.Errorf("probation holds %d bytes after a small fill; cap %d", st.ProbationBytes, capBytes)
	}
}
