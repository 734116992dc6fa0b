package serve

import "container/list"

// lru is the least-recently-used map under the three serve tiers: the
// result cache, the rendered-body cache, and the dataset store. It holds
// values by key with a caller-supplied size, bounded by bytes and
// optionally by entry count; add evicts from the back until both bounds
// hold and hands the evicted values back, so each tier counts and cleans
// up after its own evictions. It has no lock: every tier changes state of
// its own (in-flight runs, the digest index) in the same critical section.
type lru[K comparable, V any] struct {
	maxLen   int   // entry-count bound; <=0 means none
	maxBytes int64 // byte bound over the summed sizes
	total    int64 // summed sizes of the held values
	order    *list.List
	items    map[K]*list.Element
}

// lruItem is one held value; the key lets an evicted element leave the map.
type lruItem[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

func newLRU[K comparable, V any](maxLen int, maxBytes int64) *lru[K, V] {
	return &lru[K, V]{maxLen: maxLen, maxBytes: maxBytes, order: list.New(), items: make(map[K]*list.Element)}
}

// get returns the value for k and marks it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// peek returns the value for k without touching its recency.
func (c *lru[K, V]) peek(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruItem[K, V]).val, true
}

// add stores v under k as the most recently used value, then evicts from
// the back until both bounds hold, returning the evicted values oldest
// first. k must not be held, and size must be within the byte bound:
// every tier looks the key up and admits only what fits before it adds.
func (c *lru[K, V]) add(k K, v V, size int64) []V {
	c.items[k] = c.order.PushFront(&lruItem[K, V]{key: k, val: v, size: size})
	c.total += size
	var evicted []V
	for (c.maxLen > 0 && c.order.Len() > c.maxLen) || c.total > c.maxBytes {
		evicted = append(evicted, c.drop(c.order.Back()))
	}
	return evicted
}

// remove drops k, returning the value it held.
func (c *lru[K, V]) remove(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	return c.drop(el), true
}

// removeWhere drops every value satisfying pred and returns how many.
func (c *lru[K, V]) removeWhere(pred func(V) bool) int {
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if pred(el.Value.(*lruItem[K, V]).val) {
			c.drop(el)
			n++
		}
		el = next
	}
	return n
}

// drop unlinks el and credits its size back.
func (c *lru[K, V]) drop(el *list.Element) V {
	it := c.order.Remove(el).(*lruItem[K, V])
	delete(c.items, it.key)
	c.total -= it.size
	return it.val
}

// resize re-bills k at size without touching its recency or evicting:
// a store append has already checked the byte bound before it grows.
func (c *lru[K, V]) resize(k K, size int64) {
	if el, ok := c.items[k]; ok {
		it := el.Value.(*lruItem[K, V])
		c.total += size - it.size
		it.size = size
	}
}

// each calls fn for every held value, most recently used first.
func (c *lru[K, V]) each(fn func(k K, v V, size int64)) {
	for el := c.order.Front(); el != nil; el = el.Next() {
		it := el.Value.(*lruItem[K, V])
		fn(it.key, it.val, it.size)
	}
}

func (c *lru[K, V]) len() int     { return c.order.Len() }
func (c *lru[K, V]) bytes() int64 { return c.total }
