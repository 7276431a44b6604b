package stats

import (
	"cmp"
	"slices"
)

// Reservoir is a deterministic bottom-k uniform sample over a keyed stream.
// Every item's priority is a seeded hash of its integer ID; the reservoir
// keeps the k smallest priorities. Because the priority depends only on
// (seed, id) — never on arrival order — the sample is a pure function of
// the ID set: merging reservoirs built over any partition of the stream, in
// any order, selects exactly the same items. The hash makes the selection
// uniform over IDs, so the kept items are an unbiased sample.
type Reservoir[T any] struct {
	k     int
	seed  int64
	items []reservoirItem[T]
}

type reservoirItem[T any] struct {
	pri uint64
	id  int
	v   T
}

// NewReservoir returns a reservoir keeping a k-item sample. k must be
// positive.
func NewReservoir[T any](k int, seed int64) *Reservoir[T] {
	if k <= 0 {
		panic("stats: reservoir size must be positive")
	}
	return &Reservoir[T]{k: k, seed: seed, items: make([]reservoirItem[T], 0, k)}
}

// samplePriority is a splitmix64 finalization of (seed, id) — a cheap,
// well-mixed stateless hash, so no shared RNG stream exists to make the
// sample order-dependent.
func samplePriority(seed int64, id int) uint64 {
	z := uint64(seed) ^ uint64(id)*0x9e3779b97f4a7c15
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add offers one item and returns the slot in [0, k) that keeps it, or -1
// when the sample does not keep it. A slot holds its item until a later
// Add or Merge replaces it, or Items sorts the slots. IDs are assumed
// unique across the stream (they are session IDs); priority ties are
// broken by ID so even colliding hashes stay deterministic.
func (r *Reservoir[T]) Add(id int, v T) int {
	return r.insert(reservoirItem[T]{pri: samplePriority(r.seed, id), id: id, v: v})
}

// Slot returns the item slot i holds (see Add).
func (r *Reservoir[T]) Slot(i int) *T { return &r.items[i].v }

func (r *Reservoir[T]) insert(it reservoirItem[T]) int {
	if len(r.items) < r.k {
		r.items = append(r.items, it)
		return len(r.items) - 1
	}
	// Find the current worst (largest priority, then largest ID) and
	// replace it if the newcomer ranks lower. k is small; linear scan
	// beats heap bookkeeping and keeps the structure trivially mergeable.
	worst := 0
	for i := 1; i < len(r.items); i++ {
		if itemAfter(r.items[i], r.items[worst]) {
			worst = i
		}
	}
	if itemAfter(r.items[worst], it) {
		r.items[worst] = it
		return worst
	}
	return -1
}

func itemAfter[T any](a, b reservoirItem[T]) bool {
	if a.pri != b.pri {
		return a.pri > b.pri
	}
	return a.id > b.id
}

// Merge folds o's sample into r. Both must share seed and k for the merged
// sample to equal the single-stream sample; mismatches panic.
func (r *Reservoir[T]) Merge(o *Reservoir[T]) {
	if r.k != o.k || r.seed != o.seed {
		panic("stats: merging reservoirs with different size or seed")
	}
	for _, it := range o.items {
		r.insert(it)
	}
}

// Len returns the number of sampled items currently held.
func (r *Reservoir[T]) Len() int { return len(r.items) }

// Items returns the sampled values in ascending ID order. It sorts the
// slots in place: which slot holds which item changes, the sample does not.
func (r *Reservoir[T]) Items() []T {
	slices.SortFunc(r.items, func(a, b reservoirItem[T]) int { return cmp.Compare(a.id, b.id) })
	out := make([]T, len(r.items))
	for i, it := range r.items {
		out[i] = it.v
	}
	return out
}

// IDs returns the sampled IDs in ascending order.
func (r *Reservoir[T]) IDs() []int {
	ids := make([]int, len(r.items))
	for i, it := range r.items {
		ids[i] = it.id
	}
	slices.Sort(ids)
	return ids
}
