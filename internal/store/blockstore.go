package store

import (
	"container/list"
	"sync"
)

// BlockStore holds content blocks on one peer. Pinned blocks (content the
// peer published) are kept forever; cached blocks (content the peer
// fetched) live in an LRU bounded by a capacity in bytes, modelling the
// finite disk a browsing device donates to the DWeb.
type BlockStore struct {
	mu sync.Mutex

	pinned map[CID][]byte

	cacheCap   int64
	cacheUsed  int64
	cache      map[CID]*list.Element
	cacheOrder *list.List // front = most recently used

	hits, misses int64
}

type cacheEntry struct {
	cid  CID
	data []byte
}

// NewBlockStore creates a store with the given cache capacity in bytes.
// Capacity 0 disables caching (pins still work).
func NewBlockStore(cacheCapacity int64) *BlockStore {
	return &BlockStore{
		pinned:     make(map[CID][]byte),
		cacheCap:   cacheCapacity,
		cache:      make(map[CID]*list.Element),
		cacheOrder: list.New(),
	}
}

// Pin stores a block permanently. The block's CID is computed and
// returned.
func (bs *BlockStore) Pin(data []byte) CID {
	cid := CIDOf(data)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if _, ok := bs.pinned[cid]; !ok {
		bs.pinned[cid] = append([]byte(nil), data...)
	}
	// A pinned block no longer needs a cache slot.
	if el, ok := bs.cache[cid]; ok {
		bs.removeCacheLocked(el)
	}
	return cid
}

// Unpin removes a permanent block. It reports whether the block was
// pinned.
func (bs *BlockStore) Unpin(cid CID) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if _, ok := bs.pinned[cid]; !ok {
		return false
	}
	delete(bs.pinned, cid)
	return true
}

// PutCached inserts a fetched block into the LRU cache, evicting least
// recently used blocks as needed. Blocks larger than the whole cache are
// ignored.
func (bs *BlockStore) PutCached(cid CID, data []byte) {
	if bs.cacheCap <= 0 || int64(len(data)) > bs.cacheCap {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if _, ok := bs.pinned[cid]; ok {
		return
	}
	if el, ok := bs.cache[cid]; ok {
		bs.cacheOrder.MoveToFront(el)
		return
	}
	for bs.cacheUsed+int64(len(data)) > bs.cacheCap {
		oldest := bs.cacheOrder.Back()
		if oldest == nil {
			break
		}
		bs.removeCacheLocked(oldest)
	}
	el := bs.cacheOrder.PushFront(cacheEntry{cid: cid, data: append([]byte(nil), data...)})
	bs.cache[cid] = el
	bs.cacheUsed += int64(len(data))
}

func (bs *BlockStore) removeCacheLocked(el *list.Element) {
	ent := el.Value.(cacheEntry)
	bs.cacheOrder.Remove(el)
	delete(bs.cache, ent.cid)
	bs.cacheUsed -= int64(len(ent.data))
}

// Get returns the block bytes if present (pinned or cached). Cached reads
// refresh recency.
func (bs *BlockStore) Get(cid CID) ([]byte, bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if data, ok := bs.pinned[cid]; ok {
		bs.hits++
		return data, true
	}
	if el, ok := bs.cache[cid]; ok {
		bs.cacheOrder.MoveToFront(el)
		bs.hits++
		return el.Value.(cacheEntry).data, true
	}
	bs.misses++
	return nil, false
}

// Has reports block presence without affecting recency or stats.
func (bs *BlockStore) Has(cid CID) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if _, ok := bs.pinned[cid]; ok {
		return true
	}
	_, ok := bs.cache[cid]
	return ok
}

// Corrupt overwrites the stored bytes of a block without changing its key,
// simulating a tampering peer for experiment E6. It reports whether the
// block existed.
func (bs *BlockStore) Corrupt(cid CID, garbage []byte) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if _, ok := bs.pinned[cid]; ok {
		bs.pinned[cid] = append([]byte(nil), garbage...)
		return true
	}
	if el, ok := bs.cache[cid]; ok {
		ent := el.Value.(cacheEntry)
		ent.data = append([]byte(nil), garbage...)
		el.Value = ent
		return true
	}
	return false
}

// Stats reports hit/miss counters and occupancy.
type Stats struct {
	Hits, Misses int64
	Pinned       int
	Cached       int
	CacheBytes   int64
}

// StatsSnapshot returns current counters.
func (bs *BlockStore) StatsSnapshot() Stats {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return Stats{
		Hits:       bs.hits,
		Misses:     bs.misses,
		Pinned:     len(bs.pinned),
		Cached:     len(bs.cache),
		CacheBytes: bs.cacheUsed,
	}
}
