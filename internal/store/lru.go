package store

import "container/list"

// LRU is a byte-budgeted least-recently-used cache — a peer's cached
// blocks, a frontend's segment and chain caches: entries carry an
// explicit byte size, inserts evict least-recently-used entries until
// the budget holds, and an entry larger than the whole budget is simply
// not admitted (the caller re-fetches; memory stays bounded). The zero
// budget means "cache nothing". It is NOT internally locked: the owner
// serializes access under its own mutex.
type LRU[K comparable, V any] struct {
	budget  int64
	used    int64
	entries map[K]*list.Element
	order   *list.List // front = most recently used

	// Hits and Misses count Get's outcomes. An owner whose hit condition
	// is richer than key presence (a frontend's chain cache validates the
	// digest chain too) peeks and counts them itself.
	Hits, Misses int64
}

type lruEntry[K comparable, V any] struct {
	key   K
	value V
	size  int64
}

// NewLRU returns an empty cache holding at most budget bytes.
func NewLRU[K comparable, V any](budget int64) *LRU[K, V] {
	return &LRU[K, V]{
		budget:  budget,
		entries: make(map[K]*list.Element),
		order:   list.New(),
	}
}

// Get returns the cached value and refreshes its recency.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.Hits++
		return el.Value.(lruEntry[K, V]).value, true
	}
	c.Misses++
	var zero V
	return zero, false
}

// Peek returns the cached value without touching recency or counters.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	if el, ok := c.entries[key]; ok {
		return el.Value.(lruEntry[K, V]).value, true
	}
	var zero V
	return zero, false
}

// Promote refreshes an entry's recency and reports whether it is cached.
func (c *LRU[K, V]) Promote(key K) bool {
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
	}
	return ok
}

// Drop removes an entry (no-op when absent).
func (c *LRU[K, V]) Drop(key K) {
	if el, ok := c.entries[key]; ok {
		c.remove(el)
	}
}

// Add inserts or replaces an entry and evicts until the budget holds. It
// reports whether the entry was admitted (false only when size exceeds
// the entire budget).
func (c *LRU[K, V]) Add(key K, value V, size int64) bool {
	c.Drop(key)
	if size > c.budget {
		return false
	}
	for c.used+size > c.budget {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.remove(oldest)
	}
	c.entries[key] = c.order.PushFront(lruEntry[K, V]{key: key, value: value, size: size})
	c.used += size
	return true
}

// Replace swaps a cached entry's value and size in place, leaving its
// recency alone, and reports whether the key was cached. Nothing is
// evicted, so the budget may be overrun until the next Add.
func (c *LRU[K, V]) Replace(key K, value V, size int64) bool {
	el, ok := c.entries[key]
	if ok {
		ent := el.Value.(lruEntry[K, V])
		c.used += size - ent.size
		ent.value, ent.size = value, size
		el.Value = ent
	}
	return ok
}

func (c *LRU[K, V]) remove(el *list.Element) {
	ent := el.Value.(lruEntry[K, V])
	c.order.Remove(el)
	delete(c.entries, ent.key)
	c.used -= ent.size
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int { return len(c.entries) }

// Bytes returns the cached entries' total size.
func (c *LRU[K, V]) Bytes() int64 { return c.used }

// Budget returns the most bytes the cache holds.
func (c *LRU[K, V]) Budget() int64 { return c.budget }
