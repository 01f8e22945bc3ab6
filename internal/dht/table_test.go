package dht

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/netsim"
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
// the table size.
func TestClosestMatchesFullSort(t *testing.T) {
	rt := newRoutingTable(KeyOfString("self"), 8)
	for i := 0; i < 200; i++ {
		rt.update(mkContact(i))
	}
	all := rt.contacts()
	for trial := 0; trial < 20; trial++ {
		target := KeyOfString(fmt.Sprintf("target-%d", trial))
		sort.Slice(all, func(i, j int) bool { return DistanceLess(target, all[i].ID, all[j].ID) })
		for _, n := range []int{0, 1, 3, 8, 20, 25, len(all), len(all) + 5} {
			want := all[:min(n, len(all))]
			if got := rt.closest(target, n); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("target %d, n=%d: closest %v, want %v", trial, n, got, want)
			}
		}
	}
}

func TestClosestFewerThanN(t *testing.T) {
	rt := newRoutingTable(KeyOfString("self"), 8)
	rt.update(mkContact(1))
	if got := rt.closest(KeyOfString("t"), 10); len(got) != 1 {
		t.Fatalf("closest = %d contacts, want 1", len(got))
	}
}
