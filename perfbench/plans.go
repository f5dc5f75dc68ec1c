package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"statcube/internal/core"
	"statcube/internal/query"
)

// The retail object's shape, fixed to statd's retail demo: 40 products in
// 4 categories, 12 stores in 3 cities, 60 days in 2 months.
const (
	retailProducts = 40
	retailStores   = 12
	retailDays     = 60
	retailTx       = 20000
	measure        = "quantity sold"
)

// dimShape names one retail dimension's two levels and their values.
type dimShape struct {
	dim, upper   string
	leafN, upN   int
	leafFmt      string
	upFmt        string
	maxWhereLeaf int // most leaf values one IN list names
}

var retailDims = []dimShape{
	{dim: "product", upper: "category", leafN: retailProducts, upN: 4, leafFmt: "product-%04d", upFmt: "category-%02d", maxWhereLeaf: 6},
	{dim: "store", upper: "city", leafN: retailStores, upN: 3, leafFmt: "store-%03d", upFmt: "city-%02d", maxWhereLeaf: 4},
	{dim: "day", upper: "month", leafN: retailDays, upN: 2, leafFmt: "day-%04d", upFmt: "month-%02d", maxWhereLeaf: 5},
}

// plan is one query plan before spelling: BY names and WHERE conditions,
// each naming a dimension (leaf) or its upper level.
type plan struct {
	by    []planName
	where []planCond
}

type planName struct {
	dim   int
	upper bool
}

type planCond struct {
	name planName
	vals []string
}

// shape is a plan with its literal values left out: per dimension a
// role (summarized away, BY leaf, BY upper level, WHERE leaf, WHERE
// upper level) and, for WHERE, how many values its IN list names.
type shape struct {
	role  [3]int
	nvals [3]int
}

const (
	roleAway = iota
	roleByLeaf
	roleByUpper
	roleWhereLeaf
	roleWhereUpper
)

// randomShape draws a shape; one with neither BY nor WHERE is redrawn —
// the language refuses a bare SHOW.
func randomShape(rng *rand.Rand) shape {
	for {
		var sh shape
		named := false
		for d, dim := range retailDims {
			switch r := rng.Intn(10); {
			case r < 3:
				sh.role[d] = roleAway
			case r < 4:
				sh.role[d] = roleByLeaf
			case r < 6:
				sh.role[d] = roleByUpper
			case r < 8:
				sh.role[d], sh.nvals[d] = roleWhereLeaf, 1+rng.Intn(dim.maxWhereLeaf)
			default:
				sh.role[d], sh.nvals[d] = roleWhereUpper, 1+rng.Intn(dim.upN-1)
			}
			named = named || sh.role[d] != roleAway
		}
		if named {
			return sh
		}
	}
}

// hasWhere reports whether the shape restricts any dimension, i.e.
// whether its plans differ in literal values.
func (sh shape) hasWhere() bool {
	for _, r := range sh.role {
		if r >= roleWhereLeaf {
			return true
		}
	}
	return false
}

// fill draws the literal values of a shape.
func (sh shape) fill(rng *rand.Rand) plan {
	var p plan
	for d, dim := range retailDims {
		switch sh.role[d] {
		case roleByLeaf:
			p.by = append(p.by, planName{dim: d})
		case roleByUpper:
			p.by = append(p.by, planName{dim: d, upper: true})
		case roleWhereLeaf:
			p.where = append(p.where, planCond{name: planName{dim: d}, vals: pickValues(rng, dim.leafFmt, dim.leafN, sh.nvals[d])})
		case roleWhereUpper:
			p.where = append(p.where, planCond{name: planName{dim: d, upper: true}, vals: pickValues(rng, dim.upFmt, dim.upN, sh.nvals[d])})
		}
	}
	return p
}

// randomPlan draws a shape and its values.
func randomPlan(rng *rand.Rand) plan { return randomShape(rng).fill(rng) }

// pickValues draws k distinct values of a level, in draw order.
func pickValues(rng *rand.Rand, format string, n, k int) []string {
	idx := rng.Perm(n)[:k]
	out := make([]string, k)
	for i, v := range idx {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// spell renders a plan as query text in one of many equivalent spellings:
// keyword case, whitespace, qualified or bare level names, the order of
// WHERE conditions and of IN lists, and "= v" against "IN (v)" all vary;
// the normalized plan key does not.
func spell(p plan, rng *rand.Rand) string {
	kw := func(w string) string {
		switch rng.Intn(3) {
		case 0:
			return strings.ToUpper(w)
		case 1:
			return strings.ToLower(w)
		default:
			return strings.ToUpper(w[:1]) + strings.ToLower(w[1:])
		}
	}
	sp := func() string {
		if rng.Intn(4) == 0 {
			return "  "
		}
		return " "
	}
	comma := func() string {
		switch rng.Intn(3) {
		case 0:
			return ","
		case 1:
			return ", "
		default:
			return " , "
		}
	}
	name := func(n planName) string {
		sh := retailDims[n.dim]
		if !n.upper {
			return sh.dim
		}
		if rng.Intn(2) == 0 {
			return sh.dim + "." + sh.upper
		}
		return sh.upper
	}
	var b strings.Builder
	b.WriteString(kw("show") + sp() + measure)
	if len(p.by) > 0 {
		b.WriteString(sp() + kw("by") + sp())
		for i, n := range p.by {
			if i > 0 {
				b.WriteString(comma())
			}
			b.WriteString(name(n))
		}
	}
	if len(p.where) > 0 {
		b.WriteString(sp() + kw("where") + sp())
		for i, ci := range rng.Perm(len(p.where)) {
			c := p.where[ci]
			if i > 0 {
				b.WriteString(sp() + kw("and") + sp())
			}
			b.WriteString(name(c.name))
			vals := append([]string(nil), c.vals...)
			rng.Shuffle(len(vals), func(a, z int) { vals[a], vals[z] = vals[z], vals[a] })
			if len(vals) == 1 && rng.Intn(2) == 0 {
				b.WriteString(sp() + "=" + sp() + vals[0])
				continue
			}
			b.WriteString(sp() + kw("in") + sp() + "(")
			for j, v := range vals {
				if j > 0 {
					b.WriteString(comma())
				}
				b.WriteString(v)
			}
			b.WriteString(")")
		}
	}
	return b.String()
}

// planKey is the serving cache's identity for a query text.
func planKey(obj *core.StatObject, text string) (string, error) {
	q, err := query.Parse(text)
	if err != nil {
		return "", fmt.Errorf("perfbench: generated query %q does not parse: %w", text, err)
	}
	_, key, err := query.Normalize(obj, q)
	if err != nil {
		return "", fmt.Errorf("perfbench: generated query %q does not bind: %w", text, err)
	}
	return key, nil
}

// hotPlans is hot_read's request vocabulary: nPlans distinct plans, each
// in nSpell spellings that share one normalized key.
type hotPlans struct {
	texts [][]string // [plan][spelling]
	keys  []string
}

// hotShapeSeed fixes hot_read's plan shapes: the plan at each
// popularity rank has the same shape whatever the workload seed, which
// draws only the literal values and the spellings. Seeds then differ in
// the data and the values asked for, not in how much work the most
// popular plans are.
const hotShapeSeed = 20

func newHotPlans(obj *core.StatObject, seed int64, nPlans, nSpell int) (*hotPlans, error) {
	shapes := rand.New(rand.NewSource(hotShapeSeed))
	rng := rand.New(rand.NewSource(seed))
	h := &hotPlans{}
	seen := map[string]bool{}
	var sh shape
	newShape, tries := true, 0
	for len(h.keys) < nPlans {
		if newShape {
			sh, tries = randomShape(shapes), 0
		}
		tries++
		p := sh.fill(rng)
		first := spell(p, rng)
		key, err := planKey(obj, first)
		if err != nil {
			return nil, err
		}
		// A repeated key draws new values for a shape with WHERE
		// conditions; a shape without any has only one plan.
		if seen[key] {
			newShape = !sh.hasWhere() || tries >= 20
			continue
		}
		newShape = true
		seen[key] = true
		texts := []string{first}
		for len(texts) < nSpell {
			t := spell(p, rng)
			k, err := planKey(obj, t)
			if err != nil {
				return nil, err
			}
			if k != key {
				return nil, fmt.Errorf("perfbench: spellings %q and %q normalize differently", first, t)
			}
			texts = append(texts, t)
		}
		h.texts = append(h.texts, texts)
		h.keys = append(h.keys, key)
	}
	return h, nil
}

// hotStream draws hot_read requests: a Zipf-skewed plan, then a uniform
// spelling of it. Each client owns one stream.
type hotStream struct {
	h    *hotPlans
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (h *hotPlans) stream(seed int64) *hotStream {
	rng := rand.New(rand.NewSource(seed))
	return &hotStream{h: h, rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(h.keys)-1))}
}

// next returns the text to send.
func (s *hotStream) next() string {
	t := s.h.texts[s.zipf.Uint64()]
	return t[s.rng.Intn(len(t))]
}

// coldStream hands out plans no earlier request shared: every drawn plan
// is checked against the normalized keys already issued. It is shared by
// the clients of one run, so it locks.
type coldStream struct {
	mu   sync.Mutex
	obj  *core.StatObject
	rng  *rand.Rand
	seen map[string]bool
	n    int
}

func newColdStream(obj *core.StatObject, seed int64) *coldStream {
	return &coldStream{obj: obj, rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// next returns the request's sequence number and text.
func (c *coldStream) next() (int, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for tries := 0; tries < 1000; tries++ {
		t := spell(randomPlan(c.rng), c.rng)
		key, err := planKey(c.obj, t)
		if err != nil {
			return 0, "", err
		}
		if c.seen[key] {
			continue
		}
		c.seen[key] = true
		c.n++
		return c.n - 1, t, nil
	}
	return 0, "", fmt.Errorf("perfbench: cold plan space exhausted after %d plans", c.n)
}

// appendBatch is one loader batch in the writer's coded form.
type appendBatch struct {
	rows  [][]int
	vals  []float64
	total float64
}

// batchRows is the loader's batch size.
const batchRows = 256

// newBatches draws n seeded batches shaped like the retail transactions:
// Zipf-popular products, uniform stores and days, amounts 1..200.
func newBatches(seed int64, n int) []appendBatch {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, retailProducts-1)
	out := make([]appendBatch, n)
	for i := range out {
		b := appendBatch{rows: make([][]int, batchRows), vals: make([]float64, batchRows)}
		for r := range b.rows {
			b.rows[r] = []int{int(zipf.Uint64()), rng.Intn(retailStores), rng.Intn(retailDays)}
			b.vals[r] = float64(1 + rng.Intn(200))
			b.total += b.vals[r]
		}
		out[i] = b
	}
	return out
}
