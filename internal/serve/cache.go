package serve

import (
	"container/list"
	"context"
	"math"
	"sync"
	"sync/atomic"

	"statcube/internal/budget"
	"statcube/internal/fault"
	"statcube/internal/obs"
)

// Cache is the daemon's sharded result cache: normalized-plan keys map
// to fully encoded payloads, so a hit costs one shard lock, a map
// lookup and an LRU touch — no engine work, no encoding.
//
// Concurrency discipline:
//
//   - Sharding bounds lock contention: a key hashes to one shard, and a
//     shard's mutex is held only for map/LRU bookkeeping, never across
//     a fill.
//   - Fills are singleflight: the first request for a key becomes the
//     leader and computes; concurrent requests for the same key wait on
//     the entry's ready channel and share the leader's outcome
//     (payload or typed error). A failed fill — engine error, injected
//     fault at the cache.fill hook, canceled context — is never stored:
//     the entry is removed so the next request retries, which is the
//     no-poisoning invariant the chaos suite asserts.
//   - Memory is charged to a budget.Governor before an entry is stored;
//     when the reservation is refused the cache evicts least-recently
//     used entries (round-robin across shards) until it fits, and a
//     payload larger than the whole budget is served uncached.
//   - Scan resistance: a stored entry starts on probation and its first
//     hit promotes it. Never-hit entries are evicted (LRU-first) before
//     any hit one, and their bytes are capped at a sixteenth of the
//     budget (at least 1 MiB) — all but the newest entry's, which stays
//     for its second request whatever its size — so a stream of one-shot
//     plans cannot push out the plans that repeat. A budget no larger than that floor has
//     no probation segment and stays plain LRU.
//   - Invalidation is generational: Invalidate bumps the cache
//     generation and purges every shard. Entries carry the generation
//     they were filled under, so a racing fill that started before the
//     bump can serve its (then-correct) result to its waiters but is
//     not inserted.
type Cache struct {
	gov    *budget.Governor
	shards []cacheShard
	mask   uint64
	gen    atomic.Uint64
	rr     atomic.Uint64 // eviction round-robin cursor

	probationCap   int64 // cap on never-hit bytes; 0: no probation segment
	probationBytes atomic.Int64
	stores         atomic.Uint64 // entries stored so far: the next entry's seq

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	entries   atomic.Int64
}

type cacheShard struct {
	mu        sync.Mutex
	entries   map[string]*entry
	lru       *list.List // of *entry; front = most recently used
	probation *list.List // of never-hit *entry; front = newest
}

// entry is one cached (or in-flight) plan result. pay/err are written
// once by the fill leader before ready is closed; waiters read them
// only after <-ready, so the channel close publishes them.
type entry struct {
	key   string
	gen   uint64
	ready chan struct{}
	pay   *payload
	err   error
	size  int64         // governor bytes charged; 0 until stored
	elem  *list.Element // position in lru or probation; nil until stored
	fresh bool          // stored and never hit: elem is in probation
	seq   uint64        // store order, for probation's oldest-first eviction
}

// Result-cache metrics, one registration site each:
//
//	cache.hits           requests answered from a stored entry
//	cache.coalesced      requests that waited on another request's fill
//	cache.misses         requests that computed (fill led by this request)
//	cache.evictions      entries evicted to fit the byte budget
//	cache.invalidations  generation bumps that purged the cache
//	cache.bytes          bytes currently charged for stored entries
//	cache.entries        stored entries
//	cache.hit_ratio      hits/(hits+misses+coalesced), cumulative
var (
	cacheHits          = obs.Default().Counter("cache.hits")
	cacheCoalesced     = obs.Default().Counter("cache.coalesced")
	cacheMisses        = obs.Default().Counter("cache.misses")
	cacheEvictions     = obs.Default().Counter("cache.evictions")
	cacheInvalidations = obs.Default().Counter("cache.invalidations")
	cacheBytesGauge    = obs.Default().Gauge("cache.bytes")
	cacheEntriesGauge  = obs.Default().Gauge("cache.entries")
	cacheHitRatio      = obs.Default().Gauge("cache.hit_ratio")
)

// probationFloor is the least byte cap of the probation segment; a
// budget no larger than it keeps plain LRU.
const probationFloor = 1 << 20

// NewCache returns a cache of `shards` shards (rounded up to a power of
// two, minimum 1) whose stored entries are bounded by maxBytes (0 means
// unbounded, with no probation segment).
func NewCache(shards int, maxBytes int64) *Cache {
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{
		gov:    budget.NewGovernor(budget.Limits{MaxBytes: maxBytes}),
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1),
	}
	if pc := max(maxBytes/16, probationFloor); maxBytes > 0 && pc < maxBytes {
		c.probationCap = pc
	}
	for i := range c.shards {
		c.shards[i].entries = map[string]*entry{}
		c.shards[i].lru = list.New()
		c.shards[i].probation = list.New()
	}
	return c
}

// shard hashes a key to its shard (FNV-1a).
func (c *Cache) shard(key string) *cacheShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h&c.mask]
}

// GetOrFill returns the payload for key, computing it with fill on a
// miss. hit reports whether the payload came from the cache (a stored
// entry or a coalesced wait on another request's fill) rather than this
// request's own fill. fill errors are returned to every request sharing
// the flight and are never cached.
func (c *Cache) GetOrFill(ctx context.Context, key string, fill func(context.Context) (*payload, error)) (pay *payload, hit bool, err error) {
	gen := c.gen.Load()
	sh := c.shard(key)
	sh.mu.Lock()
	e := sh.entries[key]
	if e != nil && e.gen != gen {
		// Stale generation: drop it (a filled entry releases its bytes;
		// an in-flight one is the leader's problem — see the store path).
		c.dropLocked(sh, e)
		e = nil
	}
	if e != nil {
		stored := e.elem != nil
		if stored {
			c.touchLocked(sh, e)
		}
		sh.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, budget.Check(ctx)
		}
		if e.err != nil {
			return nil, false, e.err
		}
		if stored {
			c.hits.Add(1)
			if obs.On() {
				cacheHits.Inc()
			}
		} else {
			c.coalesced.Add(1)
			if obs.On() {
				cacheCoalesced.Inc()
			}
		}
		c.publishGauges()
		return e.pay, true, nil
	}
	e = &entry{key: key, gen: gen, ready: make(chan struct{})}
	sh.entries[key] = e
	sh.mu.Unlock()
	c.misses.Add(1)
	if obs.On() {
		cacheMisses.Inc()
	}

	pay, err = fill(ctx)
	if err == nil {
		// The chaos hook: an injected fill fault discards the computed
		// payload exactly like an engine error would.
		if ferr := fault.From(ctx).Hit(fault.PointCacheFill); ferr != nil {
			pay, err = nil, ferr
		}
	}
	size := int64(0)
	if err == nil {
		size = pay.size()
		if !c.reserve(size) {
			size = 0 // larger than the whole budget: serve uncached
		}
	}
	e.pay, e.err = pay, err // published to waiters by the close below
	close(e.ready)

	sh.mu.Lock()
	if sh.entries[key] != e {
		// Invalidated (or superseded) while filling: do not insert.
		sh.mu.Unlock()
		if size > 0 {
			c.gov.Release(size)
		}
	} else if err != nil || size == 0 {
		delete(sh.entries, key) // never cache a failure or an oversized payload
		sh.mu.Unlock()
	} else {
		e.size = size // written under the shard lock, like every dropLocked read
		if c.probationCap > 0 {
			e.elem, e.fresh, e.seq = sh.probation.PushFront(e), true, c.stores.Add(1)
			c.probationBytes.Add(size)
		} else {
			e.elem = sh.lru.PushFront(e)
		}
		sh.mu.Unlock()
		c.entries.Add(1)
		// Trim the segment back under its cap, older entries first. The
		// entry just stored stays, even when it alone is over the cap, so
		// the next request for its plan still hits.
		for c.probationBytes.Load() > c.probationCap {
			if !c.evictProbation(e.seq) {
				break
			}
		}
	}
	c.publishGauges()
	return pay, false, err
}

// touchLocked records a hit on a stored entry (the caller holds its
// shard's lock): a first hit promotes it out of probation, a later one
// moves it to the front of the LRU.
func (c *Cache) touchLocked(sh *cacheShard, e *entry) {
	if !e.fresh {
		sh.lru.MoveToFront(e.elem)
		return
	}
	sh.probation.Remove(e.elem)
	e.elem, e.fresh = sh.lru.PushFront(e), false
	c.probationBytes.Add(-e.size)
}

// reserve charges size bytes to the cache budget, evicting LRU entries
// until the reservation fits. It reports false when the budget cannot
// hold the payload even with an empty cache.
func (c *Cache) reserve(size int64) bool {
	for {
		//lint:ignore ledgerleak returning true hands the reservation to the cache; dropLocked/Release on eviction balances it
		if err := c.gov.Reserve(size); err == nil {
			return true
		}
		if !c.evictOne() {
			return false
		}
	}
}

// evictOne removes one stored entry, never-hit ones first, releasing
// its bytes.
func (c *Cache) evictOne() bool {
	return c.evictProbation(math.MaxUint64) || c.evictLRU()
}

// evictProbation removes the oldest never-hit entry across all shards
// if it was stored before the entry of seq before; it reports whether
// it removed one.
func (c *Cache) evictProbation(before uint64) bool {
	var oldest *cacheShard
	seq := before
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if back := sh.probation.Back(); back != nil {
			if e := back.Value.(*entry); e.seq < seq {
				oldest, seq = sh, e.seq
			}
		}
		sh.mu.Unlock()
	}
	if oldest == nil {
		return false
	}
	oldest.mu.Lock()
	back := oldest.probation.Back()
	ok := back != nil && back.Value.(*entry).seq < before
	if ok {
		c.dropLocked(oldest, back.Value.(*entry))
	}
	oldest.mu.Unlock()
	if ok && obs.On() {
		cacheEvictions.Inc()
	}
	return ok
}

// evictLRU removes the least-recently-used hit entry of the first
// non-empty shard after the round-robin cursor.
func (c *Cache) evictLRU() bool {
	start := c.rr.Add(1)
	for i := uint64(0); i < uint64(len(c.shards)); i++ {
		sh := &c.shards[(start+i)&c.mask]
		sh.mu.Lock()
		back := sh.lru.Back()
		if back == nil {
			sh.mu.Unlock()
			continue
		}
		e := back.Value.(*entry)
		c.dropLocked(sh, e)
		sh.mu.Unlock()
		if obs.On() {
			cacheEvictions.Inc()
		}
		return true
	}
	return false
}

// dropLocked unlinks an entry from its shard (whose lock the caller
// holds) and releases any charged bytes.
func (c *Cache) dropLocked(sh *cacheShard, e *entry) {
	delete(sh.entries, e.key)
	if e.elem != nil {
		if e.fresh {
			sh.probation.Remove(e.elem)
			c.probationBytes.Add(-e.size)
			e.fresh = false
		} else {
			sh.lru.Remove(e.elem)
		}
		e.elem = nil
		c.entries.Add(-1)
	}
	if e.size > 0 {
		c.gov.Release(e.size)
		e.size = 0
	}
}

// Invalidate bumps the cache generation and purges every shard — the
// hook the daemon ties to snapshot-generation changes: a republished
// dataset must never be answered from results computed over the old one.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			c.dropLocked(sh, e)
		}
		sh.mu.Unlock()
	}
	if obs.On() {
		cacheInvalidations.Inc()
	}
	c.publishGauges()
}

// Generation returns the cache's current generation.
func (c *Cache) Generation() uint64 { return c.gen.Load() }

// Stats is a point-in-time summary of the cache for /healthz and tests.
type Stats struct {
	Hits      int64   `json:"hits"`
	Coalesced int64   `json:"coalesced"`
	Misses    int64   `json:"misses"`
	HitRatio  float64 `json:"hit_ratio"`
	Entries   int64   `json:"entries"`
	Bytes     int64   `json:"bytes"`
	// ProbationBytes are the bytes of stored entries never hit yet.
	ProbationBytes int64  `json:"probation_bytes"`
	Generation     uint64 `json:"generation"`
	MaxBytes       int64  `json:"max_bytes"`
}

// Stats returns the cache's current counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:           c.hits.Load(),
		Coalesced:      c.coalesced.Load(),
		Misses:         c.misses.Load(),
		Entries:        c.entries.Load(),
		Bytes:          c.gov.BytesReserved(),
		ProbationBytes: c.probationBytes.Load(),
		Generation:     c.gen.Load(),
		MaxBytes:       c.gov.Limits().MaxBytes,
	}
	s.HitRatio = hitRatio(s.Hits+s.Coalesced, s.Misses)
	return s
}

// BytesReserved returns the bytes currently charged for stored entries.
func (c *Cache) BytesReserved() int64 { return c.gov.BytesReserved() }

// hitRatio is hits/(hits+misses), 0 before any traffic.
func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// publishGauges mirrors the cache's levels into the obs registry.
func (c *Cache) publishGauges() {
	if !obs.On() {
		return
	}
	cacheBytesGauge.Set(float64(c.gov.BytesReserved()))
	cacheEntriesGauge.Set(float64(c.entries.Load()))
	cacheHitRatio.Set(hitRatio(c.hits.Load()+c.coalesced.Load(), c.misses.Load()))
}
