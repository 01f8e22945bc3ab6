package store

import "sync"

// BlockStore holds content blocks on one peer. Pinned blocks (content the
// peer published) are kept forever; cached blocks (content the peer
// fetched) live in an LRU bounded by a capacity in bytes, modelling the
// finite disk a browsing device donates to the DWeb.
type BlockStore struct {
	mu sync.Mutex

	pinned     map[CID][]byte
	pinnedHits int64
	cache      *LRU[CID, []byte]
}

// NewBlockStore creates a store with the given cache capacity in bytes.
// Capacity 0 disables caching (pins still work).
func NewBlockStore(cacheCapacity int64) *BlockStore {
	return &BlockStore{
		pinned: make(map[CID][]byte),
		cache:  NewLRU[CID, []byte](cacheCapacity),
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
	bs.cache.Drop(cid)
	return cid
}

// PutCached inserts a fetched block into the LRU cache, evicting least
// recently used blocks as needed. A block already cached keeps its bytes
// and is only refreshed; blocks larger than the whole cache are ignored.
func (bs *BlockStore) PutCached(cid CID, data []byte) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if _, ok := bs.pinned[cid]; ok || bs.cache.Promote(cid) {
		return
	}
	bs.cache.Add(cid, append([]byte(nil), data...), int64(len(data)))
}

// Get returns the block bytes if present (pinned or cached). Cached reads
// refresh recency.
func (bs *BlockStore) Get(cid CID) ([]byte, bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if data, ok := bs.pinned[cid]; ok {
		bs.pinnedHits++
		return data, true
	}
	return bs.cache.Get(cid)
}

// Has reports block presence without affecting recency or stats.
func (bs *BlockStore) Has(cid CID) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if _, ok := bs.pinned[cid]; ok {
		return true
	}
	_, ok := bs.cache.Peek(cid)
	return ok
}

// Corrupt overwrites the stored bytes of a block without changing its key
// or its recency, simulating a tampering peer for experiment E6. It
// reports whether the block existed.
func (bs *BlockStore) Corrupt(cid CID, garbage []byte) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if _, ok := bs.pinned[cid]; ok {
		bs.pinned[cid] = append([]byte(nil), garbage...)
		return true
	}
	return bs.cache.Replace(cid, append([]byte(nil), garbage...), int64(len(garbage)))
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
		Hits:       bs.pinnedHits + bs.cache.Hits,
		Misses:     bs.cache.Misses,
		Pinned:     len(bs.pinned),
		Cached:     bs.cache.Len(),
		CacheBytes: bs.cache.Bytes(),
	}
}
