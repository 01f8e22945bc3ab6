package dht

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/netsim"
)

// Contact identifies a remote DHT node: its keyspace ID and network
// address.
type Contact struct {
	ID   Key
	Addr netsim.NodeID
}

// contactWireSize approximates one contact on the wire (20B ID + address).
const contactWireSize = 40

// routingTable is a Kademlia k-bucket table. It never performs network
// I/O: eviction prefers contacts previously marked failed, otherwise the
// newcomer is dropped (the "old contacts are good contacts" heuristic),
// which keeps updates lock-cheap and deterministic.
type routingTable struct {
	mu      sync.Mutex
	self    Key
	bucketK int
	buckets [KeySize * 8]bucket
}

type bucket struct {
	entries []tableEntry // most recently seen last
}

type tableEntry struct {
	c      Contact
	failed bool
}

func newRoutingTable(self Key, bucketK int) *routingTable {
	if bucketK <= 0 {
		bucketK = 20
	}
	return &routingTable{self: self, bucketK: bucketK}
}

// update records that a contact was seen alive. It inserts the contact,
// refreshes its recency, or — if its bucket is full — replaces a failed
// entry, else drops it. Refreshing and replacing rotate the bucket in
// place: every RPC refreshes its peer, so this runs on every message.
func (rt *routingTable) update(c Contact) {
	if c.ID == rt.self {
		return
	}
	idx := BucketIndex(rt.self.XOR(c.ID))
	if idx < 0 {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := &rt.buckets[idx]
	for i := range b.entries {
		if b.entries[i].c.ID == c.ID {
			// Move to tail (most recently seen), with the address just
			// seen and the failure flag cleared.
			b.moveToTail(i, tableEntry{c: c})
			return
		}
	}
	if len(b.entries) < rt.bucketK {
		b.entries = append(b.entries, tableEntry{c: c})
		return
	}
	for i := range b.entries {
		if b.entries[i].failed {
			b.moveToTail(i, tableEntry{c: c})
			return
		}
	}
	// Bucket full of live contacts: drop the newcomer.
}

// moveToTail removes entry i, shifting the later entries down one, and
// stores e in the freed last slot.
func (b *bucket) moveToTail(i int, e tableEntry) {
	copy(b.entries[i:], b.entries[i+1:])
	b.entries[len(b.entries)-1] = e
}

// markFailed flags a contact that did not respond; it becomes first in
// line for eviction.
func (rt *routingTable) markFailed(id Key) {
	idx := BucketIndex(rt.self.XOR(id))
	if idx < 0 {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := &rt.buckets[idx]
	for i := range b.entries {
		if b.entries[i].c.ID == id {
			b.entries[i].failed = true
			return
		}
	}
}

// closest returns up to n live-believed contacts closest to target,
// nearest first. Each contact's XOR distance is computed once and
// insertion-sorted into the n best so far; distinct IDs have distinct
// distances, so the order is total.
func (rt *routingTable) closest(target Key, n int) []Contact {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	size := 0
	for i := range rt.buckets {
		size += len(rt.buckets[i].entries)
	}
	n = min(n, size)
	// The distances never leave this call: a walk's few (K or alpha)
	// fit a stack buffer.
	var buf [32]Key
	dists := buf[:0]
	if n > len(buf) {
		dists = make([]Key, 0, n)
	}
	out := make([]Contact, 0, n)
	for i := range rt.buckets {
		for _, e := range rt.buckets[i].entries {
			d := e.c.ID.XOR(target)
			if len(out) == n {
				if n == 0 || !d.Less(dists[n-1]) {
					continue
				}
				out, dists = out[:n-1], dists[:n-1]
			}
			j := len(out)
			out, dists = append(out, e.c), append(dists, d)
			for ; j > 0 && d.Less(dists[j-1]); j-- {
				out[j], dists[j] = out[j-1], dists[j-1]
			}
			out[j], dists[j] = e.c, d
		}
	}
	return out
}

// writeTo writes the table in bucket order, most recently seen last,
// with each contact's failed flag (Node.Digest).
func (rt *routingTable) writeTo(w io.Writer) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i := range rt.buckets {
		for _, e := range rt.buckets[i].entries {
			fmt.Fprintf(w, "t %d %s %s %t\n", i, e.c.ID, e.c.Addr, e.failed)
		}
	}
}

// size returns the number of contacts in the table.
func (rt *routingTable) size() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for i := range rt.buckets {
		n += len(rt.buckets[i].entries)
	}
	return n
}

// contacts returns every contact in the table (arbitrary order).
func (rt *routingTable) contacts() []Contact {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []Contact
	for i := range rt.buckets {
		for _, e := range rt.buckets[i].entries {
			out = append(out, e.c)
		}
	}
	return out
}
