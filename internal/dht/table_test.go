package dht

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/netsim"
	"repro/internal/xrand"
)

func mkContact(i int) Contact {
	addr := netsim.NodeID(fmt.Sprintf("node-%d", i))
	return Contact{ID: KeyOfString(string(addr)), Addr: addr}
}

func TestTableUpdateAndClosest(t *testing.T) {
	self := KeyOfString("self")
	rt := newRoutingTable(self, 8)
	for i := 0; i < 100; i++ {
		rt.update(mkContact(i))
	}
	if rt.size() == 0 {
		t.Fatal("table empty after updates")
	}
	target := KeyOfString("target")
	closest := rt.closest(target, 8)
	if len(closest) != 8 {
		t.Fatalf("closest returned %d, want 8", len(closest))
	}
	// Verify ordering by XOR distance.
	for i := 1; i < len(closest); i++ {
		if DistanceLess(target, closest[i].ID, closest[i-1].ID) {
			t.Fatal("closest not sorted by distance")
		}
	}
}

func TestTableIgnoresSelf(t *testing.T) {
	self := KeyOfString("self")
	rt := newRoutingTable(self, 8)
	rt.update(Contact{ID: self, Addr: "self"})
	if rt.size() != 0 {
		t.Fatal("table should not store self")
	}
}

func TestTableBucketCapacity(t *testing.T) {
	self := KeyOfString("self")
	rt := newRoutingTable(self, 2)
	// Insert many contacts; every bucket must respect capacity 2.
	for i := 0; i < 1000; i++ {
		rt.update(mkContact(i))
	}
	for i := range rt.buckets {
		if n := len(rt.buckets[i].entries); n > 2 {
			t.Fatalf("bucket %d has %d entries, cap 2", i, n)
		}
	}
}

func TestTableFailedEviction(t *testing.T) {
	self := KeyOfString("self")
	rt := newRoutingTable(self, 1)
	// Find two contacts landing in the same bucket.
	var a, b Contact
	found := false
	for i := 0; i < 10000 && !found; i++ {
		c := mkContact(i)
		ai := BucketIndex(self.XOR(c.ID))
		for j := i + 1; j < 10000; j++ {
			d := mkContact(j)
			if BucketIndex(self.XOR(d.ID)) == ai {
				a, b = c, d
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("could not find bucket collision")
	}
	rt.update(a)
	rt.update(b) // bucket full with a; b dropped
	got := rt.contacts()
	if len(got) != 1 || got[0].ID != a.ID {
		t.Fatalf("expected only %v, got %v", a.Addr, got)
	}
	rt.markFailed(a.ID)
	rt.update(b) // now b replaces failed a
	got = rt.contacts()
	if len(got) != 1 || got[0].ID != b.ID {
		t.Fatalf("expected failed contact evicted, got %v", got)
	}
}

func TestTableUpdateRefreshesFailedFlag(t *testing.T) {
	self := KeyOfString("self")
	rt := newRoutingTable(self, 4)
	c := mkContact(1)
	rt.update(c)
	rt.markFailed(c.ID)
	rt.update(c) // seen alive again
	idx := BucketIndex(self.XOR(c.ID))
	if rt.buckets[idx].entries[0].failed {
		t.Fatal("update should clear failed flag")
	}
}

// TestClosestMatchesFullSort: the n closest are the first n of every
// contact sorted by distance to the target, for n below, at and above
// the table size. Besides hashed IDs the table holds a dozen that share
// their top 64 bits, so their distances to any target tie on the word
// closest ranks by and only the rest of the key can order them.
func TestClosestMatchesFullSort(t *testing.T) {
	rt := newRoutingTable(KeyOfString("self"), 16)
	rng := xrand.New(3)
	tie := KeyOfString("tie")
	for i := 0; i < 12; i++ {
		id := tie
		for j := 8; j < KeySize; j++ {
			id[j] = byte(rng.Intn(256))
		}
		rt.update(Contact{ID: id, Addr: netsim.NodeID(fmt.Sprintf("tie-%d", i))})
	}
	if rt.size() != 12 {
		t.Fatalf("table holds %d of the 12 tied IDs", rt.size())
	}
	for i := 0; i < 200; i++ {
		rt.update(mkContact(i))
	}
	all := rt.contacts()
	targets := []Key{tie}
	for trial := 0; trial < 20; trial++ {
		targets = append(targets, KeyOfString(fmt.Sprintf("target-%d", trial)))
	}
	for trial, target := range targets {
		sort.Slice(all, func(i, j int) bool { return DistanceLess(target, all[i].ID, all[j].ID) })
		for _, n := range []int{0, 1, 3, 8, 20, 25, len(all), len(all) + 5} {
			want := all[:min(n, len(all))]
			if got := rt.closest(target, n); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("target %d, n=%d: closest %v, want %v", trial, n, got, want)
			}
		}
	}
}

// updateReference is routingTable.update as it was when every refresh
// and every replacement built a new bucket slice.
func updateReference(rt *routingTable, c Contact) {
	if c.ID == rt.self {
		return
	}
	idx := BucketIndex(rt.self.XOR(c.ID))
	if idx < 0 {
		return
	}
	b := &rt.buckets[idx]
	for i := range b.entries {
		if b.entries[i].c.ID == c.ID {
			e := b.entries[i]
			e.failed = false
			e.c.Addr = c.Addr
			b.entries = append(append(b.entries[:i:i], b.entries[i+1:]...), e)
			return
		}
	}
	if len(b.entries) < rt.bucketK {
		b.entries = append(b.entries, tableEntry{c: c})
		return
	}
	for i := range b.entries {
		if b.entries[i].failed {
			b.entries = append(append(b.entries[:i:i], b.entries[i+1:]...), tableEntry{c: c})
			return
		}
	}
}

// TestTableUpdateMatchesReference: a scripted sequence of inserts,
// refreshes (some from a new address), failures and replacements leaves
// the in-place update's table exactly as the copying reference leaves
// it, recency order and failed flags included, after every step.
func TestTableUpdateMatchesReference(t *testing.T) {
	self := KeyOfString("self")
	got, want := newRoutingTable(self, 3), newRoutingTable(self, 3)
	rng := xrand.New(7)
	for step := 0; step < 5000; step++ {
		c := mkContact(rng.Intn(120))
		switch r := rng.Intn(10); {
		case r < 2:
			got.markFailed(c.ID)
			want.markFailed(c.ID)
		case r < 3:
			c.Addr = netsim.NodeID(fmt.Sprintf("moved-%d", step))
			fallthrough
		default:
			got.update(c)
			updateReference(want, c)
		}
		var g, w bytes.Buffer
		got.writeTo(&g)
		want.writeTo(&w)
		if g.String() != w.String() {
			t.Fatalf("step %d: table\n%s\nwant\n%s", step, g.String(), w.String())
		}
	}
	if got.size() < 10 {
		t.Fatalf("script reached only %d contacts", got.size())
	}
}

// TestClosestRanksFailedContacts: a contact marked failed is still
// returned, at its rank; a walk finds out for itself whether it answers.
func TestClosestRanksFailedContacts(t *testing.T) {
	rt := newRoutingTable(KeyOfString("self"), 8)
	for i := 0; i < 100; i++ {
		rt.update(mkContact(i))
	}
	target := KeyOfString("target")
	before := rt.closest(target, 8)
	rt.markFailed(before[2].ID)
	if after := rt.closest(target, 8); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("after marking %s failed: closest %v, want %v", before[2].Addr, after, before)
	}
}

func TestClosestFewerThanN(t *testing.T) {
	rt := newRoutingTable(KeyOfString("self"), 8)
	rt.update(mkContact(1))
	if got := rt.closest(KeyOfString("t"), 10); len(got) != 1 {
		t.Fatalf("closest = %d contacts, want 1", len(got))
	}
}
