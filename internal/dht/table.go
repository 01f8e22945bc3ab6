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
	n       int // contacts across all buckets
}

type bucket struct {
	entries []tableEntry // most recently seen last
}

type tableEntry struct {
	c      Contact
	hi     uint64 // c.ID.hi(), closest's ranking word
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
	b, e := &rt.buckets[idx], tableEntry{c: c, hi: c.ID.hi()}
	for i := range b.entries {
		if b.entries[i].c.ID == c.ID {
			// Move to tail (most recently seen), with the address just
			// seen and the failure flag cleared.
			b.moveToTail(i, e)
			return
		}
	}
	if len(b.entries) < rt.bucketK {
		b.entries = append(b.entries, e)
		rt.n++
		return
	}
	for i := range b.entries {
		if b.entries[i].failed {
			b.moveToTail(i, e)
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

// closest returns up to n contacts closest to target, nearest first,
// those marked failed included at their rank: a walk finds out for itself
// who answers. Contacts rank by their distance's top 64 bits, the full
// key breaking a tie; distinct IDs have distinct distances, so the order
// is total.
func (rt *routingTable) closest(target Key, n int) []Contact {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n = min(n, rt.n)
	type ranked struct {
		d          uint64
		bucket, at uint16
	}
	id := func(r ranked) Key { return rt.buckets[r.bucket].entries[r.at].c.ID }
	tie := func(a, b ranked) bool { return id(a).XOR(target).Less(id(b).XOR(target)) }
	less := func(a, b ranked) bool { return a.d < b.d || a.d == b.d && tie(a, b) }
	// The n best so far never leave this call: a walk's few (K or alpha)
	// fit a stack buffer, and the insertion sort moves two words holding
	// no pointer (so no write barrier), not contacts.
	var buf [32]ranked
	best := buf[:0]
	if n > len(buf) {
		best = make([]ranked, 0, n)
	}
	// Near buckets are mostly empty: stop once every contact is seen.
	th, left := target.hi(), rt.n
	for i := len(rt.buckets) - 1; left > 0; i-- {
		es := rt.buckets[i].entries
		left -= len(es)
		for j := range es {
			r := ranked{es[j].hi ^ th, uint16(i), uint16(j)}
			if len(best) == n {
				if n == 0 || !less(r, best[n-1]) {
					continue
				}
				best = best[:n-1]
			}
			k := len(best)
			best = append(best, r)
			for ; k > 0 && less(r, best[k-1]); k-- {
				best[k] = best[k-1]
			}
			best[k] = r
		}
	}
	out := make([]Contact, len(best))
	for i, r := range best {
		out[i] = rt.buckets[r.bucket].entries[r.at].c
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
	return rt.n
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
