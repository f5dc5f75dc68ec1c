package main

import (
	"fmt"
	"math"
	"sort"

	"statcube/internal/core"
	"statcube/internal/query"
	"statcube/internal/serve"
)

// expected evaluates text with query.Run on obj and flattens the result
// the way the serving layer's wire format does: dimension and measure
// names, then one row per non-empty cell sorted by coordinates.
func expected(obj *core.StatObject, text string) (*serve.Result, error) {
	o, err := query.Run(obj, text)
	if err != nil {
		return nil, err
	}
	r := &serve.Result{}
	for _, d := range o.Schema().Dimensions() {
		r.Dims = append(r.Dims, d.Name)
	}
	for _, m := range o.Measures() {
		r.Measures = append(r.Measures, m.Name)
	}
	o.ForEach(func(coords []core.Value, vals []float64) bool {
		c := serve.Cell{Coords: make([]string, len(coords)), Values: append([]float64(nil), vals...)}
		for i, v := range coords {
			c.Coords[i] = string(v)
		}
		r.Cells = append(r.Cells, c)
		return true
	})
	sort.Slice(r.Cells, func(i, j int) bool {
		a, b := r.Cells[i].Coords, r.Cells[j].Coords
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return r, nil
}

// checkServed decodes a /query.bin body and compares it, bit for bit,
// with query.Run's answer to the same text.
func checkServed(obj *core.StatObject, text string, body []byte) error {
	got, err := serve.DecodeBinary(body)
	if err != nil {
		return fmt.Errorf("served answer to %q does not decode: %w", text, err)
	}
	want, err := expected(obj, text)
	if err != nil {
		return fmt.Errorf("query.Run(%q): %w", text, err)
	}
	if !equalStrings(got.Dims, want.Dims) || !equalStrings(got.Measures, want.Measures) {
		return fmt.Errorf("served answer to %q has dims %v measures %v, query.Run %v %v", text, got.Dims, got.Measures, want.Dims, want.Measures)
	}
	if len(got.Cells) != len(want.Cells) {
		return fmt.Errorf("served answer to %q has %d cells, query.Run %d", text, len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		g, w := got.Cells[i], want.Cells[i]
		if !equalStrings(g.Coords, w.Coords) || len(g.Values) != len(w.Values) {
			return fmt.Errorf("served answer to %q differs at cell %d: %v vs %v", text, i, g.Coords, w.Coords)
		}
		for j := range g.Values {
			if math.Float64bits(g.Values[j]) != math.Float64bits(w.Values[j]) {
				return fmt.Errorf("served answer to %q differs at cell %v: %v vs %v", text, g.Coords, g.Values[j], w.Values[j])
			}
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resultTotal sums every cell's first measure in a /query.bin body.
func resultTotal(body []byte) (float64, int, error) {
	r, err := serve.DecodeBinary(body)
	if err != nil {
		return 0, 0, err
	}
	var t float64
	for _, c := range r.Cells {
		if len(c.Values) > 0 {
			t += c.Values[0]
		}
	}
	return t, len(r.Cells), nil
}
