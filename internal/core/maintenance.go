package core

import (
	"context"
	"errors"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
)

// RepairStats accumulates what the self-healing loops have done: how
// many keys were probed, how many records were pushed back to full
// replication, how many lost segments were re-materialized, and the
// total simulated traffic the maintenance spent doing it.
type RepairStats struct {
	// Runs counts completed maintenance passes.
	Runs int
	// ProbedKeys counts replica-count probes issued (pointers and
	// segments).
	ProbedKeys int
	// Republished counts shard pointers pushed back to the current k
	// closest nodes.
	Republished int
	// Reseeded counts immutable segments re-materialized from a surviving
	// replica after their replication dropped below K; ReseededBytes is
	// the segment bytes those re-puts rewrote — maintenance's share of
	// the write-amplification ledger next to compaction's CompactedBytes.
	Reseeded      int
	ReseededBytes int64
	// SegmentsLost gauges segments referenced by a pointer chain with no
	// reachable replica as of the most recent pass — data repair cannot
	// currently recover. A gauge, not a cumulative counter: a segment
	// invisible during a network storm stops counting once a later pass
	// reaches it again.
	SegmentsLost int
	// Reprovided counts provider records live peers had to re-announce:
	// those whose replica set lost a member to churn or never reached K
	// (store.Peer.Reprovide). A pass over healthy records counts none.
	Reprovided int
	// Cost is the total simulated traffic maintenance has spent.
	Cost netsim.Cost
}

// RepairStats returns a snapshot of the accumulated maintenance
// counters. Safe for concurrent use (the daemon reads it while rounds
// run).
func (c *Cluster) RepairStats() RepairStats {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	return c.repair
}

// maintenanceNode picks the DHT node that drives repair traffic. Bees
// are the natural maintainers — they wrote the records and never churn
// in the fault plans — falling back to the first live peer.
func (c *Cluster) maintenanceNode() *dht.Node {
	for _, b := range c.Bees {
		if !c.Net.IsDown(b.Peer.Addr()) {
			return b.Peer.DHT()
		}
	}
	for _, p := range c.Peers {
		if !c.Net.IsDown(p.Addr()) {
			return p.DHT()
		}
	}
	return nil
}

// RunMaintenance executes one self-healing pass and returns what this
// pass did. Three loops, in deterministic order:
//
//  1. Republish: every shard pointer is read by quorum, and the read is
//     the probe: its walk reports how many of the k closest hold the
//     record. A record replicated below K is re-Put at its current
//     version onto that walk's closest set.
//  2. Re-seed + repair: every segment referenced by a pointer chain is
//     probed; one replicated below K is fetched from a surviving
//     replica, hash-verified, and re-Put on the probe's closest set. A
//     segment with no surviving replica is counted lost (nothing to
//     re-materialize from).
//  3. Reprovide: every live peer pings the nodes its provider records
//     landed on, once each, and re-announces the records whose replica
//     set lost a member or never reached K, so content discovery
//     survives the loss of the nodes that held the provider lists.
//
// The pass is driven from a single live node (a bee when possible), in
// ascending shard / chain order, so its traffic — and therefore every
// RNG draw it causes — is identical across runs.
func (c *Cluster) RunMaintenance() RepairStats {
	var pass RepairStats
	d := c.maintenanceNode()
	if d == nil {
		return pass
	}
	k := d.K() // the replica count maintenance restores toward

	// healVersioned is step 1 for one mutable record: the quorum read IS
	// the health check — its walk asked each of the K closest what it
	// holds — and a record replicated below K is re-Put at its current
	// version onto that same walk. An unreadable record (never written,
	// or wholly lost to churn — nothing to repair from) is skipped.
	healVersioned := func(key dht.Key) ([]byte, bool) {
		loc, cost, err := d.Locate(context.Background(), key)
		pass.Cost = pass.Cost.Seq(cost)
		if err != nil {
			return nil, false
		}
		pass.ProbedKeys++
		if loc.Replicas() < k {
			_, cost, err := d.PutAt(loc.Walk, loc.Value, loc.Seq)
			pass.Cost = pass.Cost.Seq(cost)
			if err == nil {
				pass.Republished++
			}
		}
		return loc.Value, true
	}

	// 1+2. Shard pointers, then each pointer's segment chain.
	for shard := 0; shard < c.cfg.NumShards; shard++ {
		val, ok := healVersioned(pointerKey(shard))
		if !ok {
			continue
		}
		ptr, err := decodeShardPointer(val)
		if err != nil {
			continue
		}
		for _, digest := range ptr.Digests {
			segKey := dht.KeyOfString(index.SegmentKey(digest))
			pass.ProbedKeys++
			probe, cost := d.ProbeReplication(segKey)
			pass.Cost = pass.Cost.Seq(cost)
			n := probe.Replicas()
			if n >= k {
				continue
			}
			raw, cost, err := d.GetImmutableCtx(context.Background(), segKey)
			pass.Cost = pass.Cost.Seq(cost)
			if err != nil || index.DigestOf(raw) != digest {
				// Lost means NOTHING answered: the probe saw zero replicas
				// and the fetch found no (intact) copy. A failed fetch with
				// a live replica on record is transient — the next pass
				// retries instead of declaring data gone under a storm.
				if n == 0 {
					pass.SegmentsLost++
				}
				continue
			}
			_, cost, err = d.PutAt(probe, raw, 0)
			pass.Cost = pass.Cost.Seq(cost)
			if err == nil {
				pass.Reseeded++
				pass.ReseededBytes += int64(len(raw))
			}
		}
	}

	// 3. Provider republish from every live peer and bee, in slice order.
	for _, p := range c.Peers {
		if c.Net.IsDown(p.Addr()) {
			continue
		}
		n, cost := p.Reprovide()
		pass.Reprovided += n
		pass.Cost = pass.Cost.Seq(cost)
	}
	for _, b := range c.Bees {
		if c.Net.IsDown(b.Peer.Addr()) {
			continue
		}
		n, cost := b.Peer.Reprovide()
		pass.Reprovided += n
		pass.Cost = pass.Cost.Seq(cost)
	}

	pass.Runs = 1
	c.repairMu.Lock()
	c.repair.Runs += pass.Runs
	c.repair.ProbedKeys += pass.ProbedKeys
	c.repair.Republished += pass.Republished
	c.repair.Reseeded += pass.Reseeded
	c.repair.ReseededBytes += pass.ReseededBytes
	c.repair.SegmentsLost = pass.SegmentsLost // gauge: the latest pass's view
	c.repair.Reprovided += pass.Reprovided
	c.repair.Cost = c.repair.Cost.Seq(pass.Cost)
	c.repairMu.Unlock()
	return pass
}

// Readiness is the health summary /readyz serves: per-shard pointer
// reachability through a live DHT node.
type Readiness struct {
	Ready       bool
	ShardsTotal int
	ShardsOK    int
	// Failed lists the shards whose pointer record is unreachable.
	Failed []int
	// Cost is the DHT probe traffic the readiness check itself paid.
	Cost netsim.Cost
}

// Readiness probes every shard pointer and reports which are currently
// reachable. A shard that has never been written counts healthy (there
// is nothing to serve yet); a shard whose pointer read fails counts
// degraded (readsEmpty).
func (c *Cluster) Readiness() Readiness {
	r := Readiness{ShardsTotal: c.cfg.NumShards}
	d := c.maintenanceNode()
	if d == nil {
		r.Failed = make([]int, 0, c.cfg.NumShards)
		for shard := 0; shard < c.cfg.NumShards; shard++ {
			r.Failed = append(r.Failed, shard)
		}
		return r
	}
	for shard := 0; shard < c.cfg.NumShards; shard++ {
		_, _, cost, err := d.GetCtx(context.Background(), pointerKey(shard))
		r.Cost = r.Cost.Seq(cost)
		if err == nil || c.readsEmpty(shard, err) {
			r.ShardsOK++
			continue
		}
		r.Failed = append(r.Failed, shard)
	}
	r.Ready = r.ShardsOK == r.ShardsTotal
	return r
}

// readsEmpty reports whether a pointer read of shard that returned err
// means the shard is empty. A read that reached no replica reports dht.ErrNotFound
// just like a key never written, so that answer is believed only for a
// shard this cluster never materialized; any other failure, on any
// shard, is an unreachable shard.
func (c *Cluster) readsEmpty(shard int, err error) bool {
	if !errors.Is(err, dht.ErrNotFound) {
		return false
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return shard >= len(c.written) || c.written[shard].Version == 0
}
