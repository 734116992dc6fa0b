package serve

import (
	"math/rand"
	"slices"
	"testing"
)

// refItem is one entry of the reference model: a plain slice, front =
// most recently used, with every operation written as the obvious scan.
type refItem struct {
	key  int
	val  int
	size int64
}

type refLRU struct {
	maxLen   int
	maxBytes int64
	items    []refItem
}

func (r *refLRU) find(k int) int {
	return slices.IndexFunc(r.items, func(it refItem) bool { return it.key == k })
}

func (r *refLRU) touch(i int) {
	it := r.items[i]
	r.items = slices.Insert(slices.Delete(r.items, i, i+1), 0, it)
}

func (r *refLRU) bytes() int64 {
	var n int64
	for _, it := range r.items {
		n += it.size
	}
	return n
}

func (r *refLRU) add(k, v int, size int64) []int {
	r.items = slices.Insert(r.items, 0, refItem{k, v, size})
	var evicted []int
	for len(r.items) > 0 && ((r.maxLen > 0 && len(r.items) > r.maxLen) || r.bytes() > r.maxBytes) {
		evicted = append(evicted, r.items[len(r.items)-1].val)
		r.items = r.items[:len(r.items)-1]
	}
	return evicted
}

// TestLRUMatchesReferenceModel drives a scripted sequence of every lru
// operation against the slice model, with and without an entry-count
// bound, and checks after each step that the byte total is the sum of
// the held sizes, both bounds hold after add, evictions come back oldest
// first, each walks in the model's order, and removeWhere drops what the
// model drops.
func TestLRUMatchesReferenceModel(t *testing.T) {
	for _, maxLen := range []int{0, 4} {
		const maxBytes = 100
		c := newLRU[int, int](maxLen, maxBytes)
		ref := &refLRU{maxLen: maxLen, maxBytes: maxBytes}
		rng := rand.New(rand.NewSource(int64(maxLen) + 1))
		for step := 0; step < 3000; step++ {
			k := rng.Intn(10)
			size := int64(rng.Intn(45))
			switch op := rng.Intn(7); op {
			case 0, 1:
				if ref.find(k) >= 0 {
					break // callers never add a held key
				}
				got := c.add(k, step, size)
				want := ref.add(k, step, size)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d add(%d, %d B): evicted %v, want %v", step, k, size, got, want)
				}
				if (maxLen > 0 && c.len() > maxLen) || c.bytes() > maxBytes {
					t.Fatalf("step %d add: bounds broken: len=%d bytes=%d", step, c.len(), c.bytes())
				}
			case 2:
				v, ok := c.get(k)
				i := ref.find(k)
				if ok != (i >= 0) || (ok && v != ref.items[i].val) {
					t.Fatalf("step %d get(%d) = %d, %t; model index %d", step, k, v, ok, i)
				}
				if ok {
					ref.touch(i)
				}
			case 3:
				v, ok := c.peek(k)
				i := ref.find(k)
				if ok != (i >= 0) || (ok && v != ref.items[i].val) {
					t.Fatalf("step %d peek(%d) = %d, %t; model index %d", step, k, v, ok, i)
				}
			case 4:
				v, ok := c.remove(k)
				i := ref.find(k)
				if ok != (i >= 0) || (ok && v != ref.items[i].val) {
					t.Fatalf("step %d remove(%d) = %d, %t; model index %d", step, k, v, ok, i)
				}
				if ok {
					ref.items = slices.Delete(ref.items, i, i+1)
				}
			case 5:
				c.resize(k, size)
				if i := ref.find(k); i >= 0 {
					ref.items[i].size = size
				}
			case 6:
				mod := rng.Intn(4) + 2
				pred := func(v int) bool { return v%mod == 0 }
				want := len(ref.items)
				ref.items = slices.DeleteFunc(ref.items, func(it refItem) bool { return pred(it.val) })
				want -= len(ref.items)
				if got := c.removeWhere(pred); got != want {
					t.Fatalf("step %d removeWhere(%%%d) = %d, want %d", step, mod, got, want)
				}
			}

			if c.bytes() != ref.bytes() {
				t.Fatalf("step %d: bytes=%d, want Σ size = %d", step, c.bytes(), ref.bytes())
			}
			var got []refItem
			c.each(func(k, v int, size int64) { got = append(got, refItem{k, v, size}) })
			if !slices.Equal(got, ref.items) || c.len() != len(ref.items) {
				t.Fatalf("step %d: each = %v (len %d), want %v", step, got, c.len(), ref.items)
			}
		}
	}
}
