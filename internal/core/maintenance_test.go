package core

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
)

// TestMaintenancePassCost: on the docs/indexing.md fixture, a first
// maintenance pass republishes one pointer and re-seeds one segment that
// fewer than K of the closest nodes its walks find hold, and a second
// pass finds nothing to repair. Both are pinned to the message and the
// byte: every record is healed by its one Locate walk, which is the read
// and the probe at once, so a pass that probes or fetches a record a
// second time fails here. The first pass re-seeded sixteen segments
// (250 495 B, 735 msgs) until every write also landed on its writer. The
// bytes rose (4 894 907 → 4 897 266 and 4 767 117 → 4 769 245) when shard
// pointers began to carry each run's size.
func TestMaintenancePassCost(t *testing.T) {
	c, _ := docsFixture(t)
	for i, want := range []RepairStats{
		{Runs: 1, ProbedKeys: 40, Republished: 1, Reseeded: 1, ReseededBytes: 17_760,
			Cost: netsim.Cost{Msgs: 615, Bytes: 4_897_266}},
		{Runs: 1, ProbedKeys: 40,
			Cost: netsim.Cost{Msgs: 599, Bytes: 4_769_245}},
	} {
		got := c.RunMaintenance()
		t.Logf("pass %d: %+v", i+1, got)
		got.Cost.Latency = 0
		if got != want {
			t.Errorf("pass %d = %+v, want %+v", i+1, got, want)
		}
	}
}

// TestMaintenanceNeverReseedsTamperedBytes: a segment is re-seeded only
// with bytes that hash to the digest its pointer names. The maintenance
// node holds a tampered copy of the one named segment — its own copy
// would be a vote in the Locate walk and win the tie at sequence 0, but
// it fails the walk's digest check — and half of the segment's remote
// holders fail, so it drops below K. The pass reads a genuine copy and
// re-seeds that: once, with nothing lost, and afterwards every node that
// holds the segment, the maintenance node included, holds the genuine
// bytes. The same faults without the tamper re-seed the segment too, so
// the fixture does drop it below K.
func TestMaintenanceNeverReseedsTamperedBytes(t *testing.T) {
	run := func(tamper bool) RepairStats {
		cfg := DefaultConfig()
		cfg.NumShards = 1
		c := NewCluster(cfg)
		owner := c.NewAccount("writer", 1<<40)
		c.Seal()
		if rr, err := c.IndexBatch(owner, corpusBatches(cfg.Seed, 1, 8)[0]); err != nil || len(rr.Errors) > 0 {
			t.Fatalf("round: err=%v round errors=%v", err, rr.Errors)
		}
		d := c.maintenanceNode()
		ptr, _, err := readShardPointer(d, 0)
		if err != nil || len(ptr.Digests) != 1 {
			t.Fatalf("pointer %+v err=%v, want one segment", ptr, err)
		}
		key := dht.KeyOfString(index.SegmentKey(ptr.Digests[0]))
		var holders []netsim.NodeID
		var genuine []byte
		for _, p := range c.Peers {
			if raw, ok := p.DHT().Local(key); ok {
				holders, genuine = append(holders, p.Addr()), raw
			}
		}
		if len(holders) < 2 {
			t.Fatalf("%d peers hold the segment, want at least two", len(holders))
		}
		for _, a := range holders[:len(holders)/2] {
			c.Net.SetDown(a, true)
		}
		tampered := slices.Clone(genuine)
		tampered[len(tampered)/2] ^= 0xff
		if tamper {
			d.StoreLocal(key, tampered, 0)
		}

		pass := c.RunMaintenance()
		for _, n := range dhtNodes(c) {
			if raw, ok := n.Local(key); ok && !bytes.Equal(raw, genuine) {
				t.Fatalf("tamper=%v: node %s holds bytes other than the genuine segment", tamper, n.Self().Addr)
			}
		}
		if _, ok := d.Local(key); tamper && !ok {
			t.Fatal("the maintenance node lost its copy")
		}
		return pass
	}
	for _, tamper := range []bool{false, true} {
		if pass := run(tamper); pass.Reseeded != 1 || pass.ReseededBytes == 0 || pass.SegmentsLost != 0 {
			t.Fatalf("tamper=%v: %+v, want the segment re-seeded once and nothing lost", tamper, pass)
		}
	}
}

// TestMaintenanceSeesEveryTamperedHolder: a tampered copy is seen even
// when it would not have won the walk. On one shard with one segment,
// each member of the closest set the maintenance node's Locate walk finds
// has its copy tampered in turn, and one pass runs after each: it
// re-seeds the segment once, loses nothing, and afterwards no member of
// the walk's closest set holds bytes other than the genuine segment. With
// nothing tampered a pass re-seeds nothing.
func TestMaintenanceSeesEveryTamperedHolder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumShards = 1
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	if rr, err := c.IndexBatch(owner, corpusBatches(cfg.Seed, 1, 8)[0]); err != nil || len(rr.Errors) > 0 {
		t.Fatalf("round: err=%v round errors=%v", err, rr.Errors)
	}
	d := c.maintenanceNode()
	ptr, _, err := readShardPointer(d, 0)
	if err != nil || len(ptr.Digests) != 1 {
		t.Fatalf("pointer %+v err=%v, want one segment", ptr, err)
	}
	key := dht.KeyOfString(index.SegmentKey(ptr.Digests[0]))
	nodes := make(map[netsim.NodeID]*dht.Node)
	for _, n := range dhtNodes(c) {
		nodes[n.Self().Addr] = n
	}
	// closest reads the segment as maintenance does and returns the walk's
	// closest set.
	closest := func() []dht.Replica {
		loc, _, err := d.Locate(context.Background(), key, nil)
		if err != nil || index.DigestOf(loc.Value) != ptr.Digests[0] {
			t.Fatalf("segment read: err=%v", err)
		}
		return loc.Closest
	}
	c.RunMaintenance()
	if pass := c.RunMaintenance(); pass.Reseeded != 0 {
		t.Fatalf("nothing tampered: %+v, want nothing re-seeded", pass)
	}
	genuine, _ := nodes[closest()[0].Addr].Local(key)
	for i, r := range closest() {
		tampered := slices.Clone(genuine)
		tampered[len(tampered)/2] ^= 0xff
		nodes[r.Addr].StoreLocal(key, tampered, 0)
		if pass := c.RunMaintenance(); pass.Reseeded != 1 || pass.SegmentsLost != 0 {
			t.Fatalf("holder %d (%s) tampered: %+v, want the segment re-seeded once and nothing lost", i, r.Addr, pass)
		}
		for _, h := range closest() {
			if raw, ok := nodes[h.Addr].Local(key); !ok || !bytes.Equal(raw, genuine) {
				t.Fatalf("holder %d (%s) tampered: after the pass %s, in the walk's closest set, holds other bytes", i, r.Addr, h.Addr)
			}
		}
	}
}

// TestMaintenanceLeavesDisplacedCopies: a tampered copy on a node the
// maintenance walk asks but displaces from its closest set is out of a
// re-Put's reach, so it is no reason to re-seed. On one shard with one
// segment, after the passes that heal the round's own under-replication,
// every node outside the walk's closest set but the maintenance node gets
// a tampered copy; the next two passes re-seed nothing and lose nothing,
// and the closest set still holds the genuine bytes.
func TestMaintenanceLeavesDisplacedCopies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumShards = 1
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	if rr, err := c.IndexBatch(owner, corpusBatches(cfg.Seed, 1, 8)[0]); err != nil || len(rr.Errors) > 0 {
		t.Fatalf("round: err=%v round errors=%v", err, rr.Errors)
	}
	d := c.maintenanceNode()
	ptr, _, err := readShardPointer(d, 0)
	if err != nil || len(ptr.Digests) != 1 {
		t.Fatalf("pointer %+v err=%v, want one segment", ptr, err)
	}
	key := dht.KeyOfString(index.SegmentKey(ptr.Digests[0]))
	c.RunMaintenance()
	if pass := c.RunMaintenance(); pass.Reseeded != 0 {
		t.Fatalf("nothing tampered: %+v, want nothing re-seeded", pass)
	}
	loc, _, err := d.Locate(context.Background(), key, nil)
	if err != nil || index.DigestOf(loc.Value) != ptr.Digests[0] {
		t.Fatalf("segment read: err=%v", err)
	}
	closest := make(map[netsim.NodeID]bool)
	for _, r := range loc.Closest {
		closest[r.Addr] = true
	}
	tampered := slices.Clone(loc.Value)
	tampered[len(tampered)/2] ^= 0xff
	for _, n := range dhtNodes(c) {
		if !closest[n.Self().Addr] && n != d {
			n.StoreLocal(key, tampered, 0)
		}
	}
	for i := 1; i <= 2; i++ {
		if pass := c.RunMaintenance(); pass.Reseeded != 0 || pass.SegmentsLost != 0 {
			t.Fatalf("pass %d: %+v, want nothing re-seeded and nothing lost", i, pass)
		}
	}
	for _, n := range dhtNodes(c) {
		if raw, ok := n.Local(key); closest[n.Self().Addr] && (!ok || !bytes.Equal(raw, loc.Value)) {
			t.Fatalf("%s, in the walk's closest set, holds other bytes", n.Self().Addr)
		}
	}
}
