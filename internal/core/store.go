package core

import (
	"fmt"
	"slices"
)

// CellStore is the physical-organization abstraction of Section 6: a
// statistical object's cells live behind this interface so the same
// conceptual operators run over a row store, a transposed file, or a
// linearized/compressed array. Coordinates are leaf-level value ordinals,
// one per dimension, in schema order. Slots are the flattened measure
// accumulators (see Measure.slots).
type CellStore interface {
	// Shape returns the per-dimension cardinality the store was built for.
	Shape() []int
	// NumSlots returns the accumulator slots per cell.
	NumSlots() int
	// Get copies the cell's slots into dst and reports whether the cell is
	// non-empty. dst must have NumSlots capacity.
	Get(coords []int, dst []float64) bool
	// Put replaces the cell's slots.
	Put(coords []int, slots []float64)
	// Merge folds slots into the cell with the supplied merge function,
	// initializing an empty cell with identity first.
	Merge(coords []int, slots []float64, identity func([]float64), merge func(dst, src []float64))
	// ForEach visits every non-empty cell in a deterministic order; the
	// callback must not retain coords or slots. Iteration stops if the
	// callback returns false.
	ForEach(fn func(coords []int, slots []float64) bool)
	// Cells returns the number of non-empty cells.
	Cells() int
}

// MapStore is the reference CellStore: a hash map from linearized
// coordinates to accumulator slots. It is the default backing for derived
// objects produced by the conceptual operators.
type MapStore struct {
	shape   []int
	strides []uint64
	slots   int
	cells   map[uint64][]float64
}

// NewMapStore creates an empty MapStore for the given shape and slot count.
func NewMapStore(shape []int, slots int) *MapStore {
	s := &MapStore{
		shape:   append([]int(nil), shape...),
		strides: make([]uint64, len(shape)),
		slots:   slots,
		cells:   map[uint64][]float64{},
	}
	// Row-major strides; the linearization of Section 6.2, used here only
	// as a map key.
	stride := uint64(1)
	for i := len(shape) - 1; i >= 0; i-- {
		s.strides[i] = stride
		stride *= uint64(shape[i])
	}
	return s
}

// Shape implements CellStore.
func (s *MapStore) Shape() []int { return s.shape }

// NumSlots implements CellStore.
func (s *MapStore) NumSlots() int { return s.slots }

func (s *MapStore) key(coords []int) uint64 {
	if len(coords) != len(s.shape) {
		panic(fmt.Sprintf("core: %d coordinates for %d dimensions", len(coords), len(s.shape)))
	}
	var k uint64
	for i, c := range coords {
		if c < 0 || c >= s.shape[i] {
			panic(fmt.Sprintf("core: coordinate %d out of range [0,%d) in dimension %d", c, s.shape[i], i))
		}
		k += uint64(c) * s.strides[i]
	}
	return k
}

func (s *MapStore) unkey(k uint64, coords []int) {
	last := len(s.shape) - 1
	for i := 0; i < last; i++ {
		c := k / s.strides[i]
		coords[i] = int(c)
		k -= c * s.strides[i]
	}
	if last >= 0 {
		coords[last] = int(k) // the last stride is 1
	}
}

// Get implements CellStore.
func (s *MapStore) Get(coords []int, dst []float64) bool {
	acc, ok := s.cells[s.key(coords)]
	if !ok {
		return false
	}
	copy(dst, acc)
	return true
}

// Put implements CellStore.
func (s *MapStore) Put(coords []int, slots []float64) {
	if len(slots) != s.slots {
		panic(fmt.Sprintf("core: %d slots, store has %d", len(slots), s.slots))
	}
	s.cells[s.key(coords)] = append([]float64(nil), slots...)
}

// Merge implements CellStore.
func (s *MapStore) Merge(coords []int, slots []float64, identity func([]float64), merge func(dst, src []float64)) {
	k := s.key(coords)
	acc, ok := s.cells[k]
	if !ok {
		acc = make([]float64, s.slots)
		identity(acc)
		s.cells[k] = acc
	}
	merge(acc, slots)
}

// ForEach implements CellStore; cells are visited in ascending linearized
// order for determinism.
func (s *MapStore) ForEach(fn func(coords []int, slots []float64) bool) {
	keys := make([]uint64, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	coords := make([]int, len(s.shape))
	for _, k := range keys {
		s.unkey(k, coords)
		if !fn(coords, s.cells[k]) {
			return
		}
	}
}

// Cells implements CellStore.
func (s *MapStore) Cells() int { return len(s.cells) }
