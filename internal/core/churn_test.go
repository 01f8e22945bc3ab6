package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
)

// churnCluster builds a larger cluster with an indexed corpus.
func churnCluster(t *testing.T) (*Cluster, []string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.NumPeers = 24
	cfg.NumBees = 3
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 10_000)
	c.Seal()
	var markers []string
	for i := 0; i < 10; i++ {
		marker := fmt.Sprintf("churnmarker%02d", i)
		markers = append(markers, marker)
		if _, err := c.Publish(alice, c.Peers[i%len(c.Peers)], fmt.Sprintf("dweb://churn/%d", i),
			"stable document body "+marker, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal()
	c.RunUntilIdle(8)
	return c, markers
}

func searchableCount(t *testing.T, c *Cluster, fe *Frontend, markers []string) int {
	t.Helper()
	hits := 0
	for _, m := range markers {
		resp, err := fe.Search(m, 5)
		if err == nil && len(resp.Results) > 0 {
			hits++
		}
	}
	return hits
}

func TestSearchSurvivesModerateChurn(t *testing.T) {
	c, markers := churnCluster(t)
	fe := NewFrontend(c, c.Bees[0].Peer) // frontend on a bee (never failed)
	if got := searchableCount(t, c, fe, markers); got != len(markers) {
		t.Fatalf("pre-churn searchable = %d/%d", got, len(markers))
	}
	c.FailPeers(0.25)
	fe2 := NewFrontend(c, c.Bees[1].Peer) // fresh frontend, no caches
	if got := searchableCount(t, c, fe2, markers); got < len(markers)*8/10 {
		t.Fatalf("post-churn searchable = %d/%d, want >= 80%%", got, len(markers))
	}
}

// TestMaintenanceRestoresAfterHeavyChurn: with half the peers down for
// good, one maintenance pass re-replicates what the index names onto
// the live closest nodes, and a fresh frontend finds (nearly) every
// marker again.
func TestMaintenanceRestoresAfterHeavyChurn(t *testing.T) {
	c, markers := churnCluster(t)
	failed := c.FailPeers(0.5)

	c.RunMaintenance()

	fe := NewFrontend(c, c.Bees[2].Peer)
	got := searchableCount(t, c, fe, markers)
	if got < len(markers)*8/10 {
		t.Fatalf("post-maintenance searchable = %d/%d, want >= 80%%", got, len(markers))
	}
	// Healing is also possible.
	c.HealPeers(failed)
	if got := searchableCount(t, c, fe, markers); got != len(markers) {
		t.Fatalf("post-heal searchable = %d/%d", got, len(markers))
	}
}

func TestIndexingContinuesDuringChurn(t *testing.T) {
	c, _ := churnCluster(t)
	c.FailPeers(0.25)
	alice := c.NewAccount("alice2", 10_000)
	c.Seal()
	// Publish onto a live peer (bees are always live).
	if _, err := c.Publish(alice, c.Bees[0].Peer, "dweb://during-churn",
		"published while the swarm is degraded churnfresh", nil); err != nil {
		t.Fatal(err)
	}
	c.Seal()
	c.RunUntilIdle(8)
	fe := NewFrontend(c, c.Bees[1].Peer)
	resp, err := fe.Search("churnfresh", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("new content not indexed during churn: %+v", resp.Results)
	}
}

func TestFailPeersDeterministic(t *testing.T) {
	build := func() []string {
		cfg := DefaultConfig()
		cfg.Seed = 9
		cfg.NumPeers = 12
		cfg.NumBees = 2
		c := NewCluster(cfg)
		var out []string
		for _, a := range c.FailPeers(0.3) {
			out = append(out, string(a))
		}
		return out
	}
	a, b := build(), build()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lens %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FailPeers not deterministic")
		}
	}
}

// TestChurnMaintenanceOneWalkPerRecord: a record's quorum read IS its
// health check, pointer and segment alike, so a maintenance pass over
// healthy records walks once per record — not three times (a read, a
// replication probe, and a republish walk when it fires). The pass's
// traffic is exactly the sum of its parts run by hand: one locating read
// per record, one ping per distinct holder of each node's provider
// records — a healthy pass re-announces nothing. Counters match, on the
// same cluster, those of the commit before maintenance reused its walks,
// less the collection-statistics record that pass also healed and that
// no longer exists (then 18 probed / 4 republished / 2 re-seeded for
// 1197 msgs of which the stats record was 1 / 1 / 0 and 40 msgs; steady
// passes 18 / 0 / 0 for 1096 msgs, the stats record 1 / 0 / 0 and 24).
// Probing each segment with a FIND_NODE walk and then K FIND_VALUEs
// cost a steady pass 389 msgs. Since every write also lands on its
// writer, the maintenance node's closest set misses fewer copies, and
// the first pass repairs 1 / 0 where it repaired 3 / 2.
func TestChurnMaintenanceOneWalkPerRecord(t *testing.T) {
	c, _ := churnCluster(t)
	first := c.RunMaintenance()
	if first.ProbedKeys != 17 || first.Republished != 1 || first.Reseeded != 0 || first.Reprovided != 0 {
		t.Fatalf("first pass = %+v, want 17 probed / 1 republished / 0 re-seeded / 0 re-announced", first)
	}
	if first.Cost.Msgs >= 1197-40 {
		t.Fatalf("first pass cost %d msgs, three walks per record cost %d", first.Cost.Msgs, 1197-40)
	}
	pass := c.RunMaintenance()
	if pass.ProbedKeys != 17 || pass.Republished != 0 || pass.Reseeded != 0 || pass.SegmentsLost != 0 || pass.Reprovided != 0 {
		t.Fatalf("steady pass = %+v, want 17 probed and nothing to repair or re-announce", pass)
	}
	if pass.Cost.Msgs >= 389 {
		t.Fatalf("steady pass cost %d msgs, a walk and K probes per segment cost 389", pass.Cost.Msgs)
	}

	d := c.maintenanceNode()
	var byHand netsim.Cost
	records := 0
	locate := func(key dht.Key) (dht.Located, error) {
		loc, cost, err := d.Locate(context.Background(), key, nil)
		byHand = byHand.Seq(cost)
		if err == nil && loc.Replicas() != d.K() {
			t.Fatalf("healthy record %s seen on %d replicas", key.Short(), loc.Replicas())
		}
		return loc, err
	}
	for shard := 0; shard < c.cfg.NumShards; shard++ {
		loc, err := locate(pointerKey(shard))
		if err != nil {
			continue // shard never written
		}
		records++
		ptr, err := decodeShardPointer(loc.Value)
		if err != nil {
			t.Fatal(err)
		}
		for _, dg := range ptr.Digests {
			if _, err := locate(dht.KeyOfString(index.SegmentKey(dg))); err != nil {
				t.Fatalf("segment %s: %v", dg, err)
			}
			records++
		}
	}
	if records != pass.ProbedKeys {
		t.Fatalf("%d records by hand, pass probed %d", records, pass.ProbedKeys)
	}
	peers := slices.Clone(c.Peers)
	for _, b := range c.Bees {
		peers = append(peers, b.Peer)
	}
	for _, p := range peers {
		for _, h := range p.Holders() {
			cost, err := p.DHT().Ping(h)
			if err != nil {
				t.Fatalf("holder %s of %s's records is down", h.Addr, p.Addr())
			}
			byHand = byHand.Seq(cost)
		}
	}
	if pass.Cost.Msgs != byHand.Msgs {
		t.Fatalf("steady pass cost %d msgs; one read per record + one ping per holder cost %d",
			pass.Cost.Msgs, byHand.Msgs)
	}
}
