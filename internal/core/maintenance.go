package core

import (
	"bytes"
	"context"
	"errors"
	"slices"

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
	Runs int `json:"runs"`
	// ProbedKeys counts records probed (pointers and segments): each
	// one Locate walk, the read and the replica count at once.
	ProbedKeys int `json:"probed_keys"`
	// Republished counts shard pointers pushed back to the current k
	// closest nodes.
	Republished int `json:"republished"`
	// Reseeded counts immutable segments re-materialized from a surviving
	// genuine replica after their replication dropped below K or this
	// node's own copy failed its digest; ReseededBytes is
	// the segment bytes those re-puts rewrote — maintenance's share of
	// the write-amplification ledger next to compaction's CompactedBytes.
	Reseeded      int   `json:"reseeded"`
	ReseededBytes int64 `json:"reseeded_bytes"`
	// SegmentsLost gauges segments referenced by a pointer chain with no
	// reachable replica as of the most recent pass — data repair cannot
	// currently recover. A gauge, not a cumulative counter: a segment
	// invisible during a network storm stops counting once a later pass
	// reaches it again.
	SegmentsLost int `json:"segments_lost"`
	// Reprovided counts provider records live peers had to re-announce:
	// those whose replica set lost a member to churn or never reached K
	// (store.Peer.Reprovide). A pass over healthy records counts none.
	Reprovided int `json:"reprovided"`
	// Cost is the total simulated traffic maintenance has spent.
	Cost netsim.Cost `json:"cost"`
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
// pass did. Two loops, in deterministic order:
//
//  1. Heal: every shard pointer, then each segment its chain names, is
//     read by quorum, and the read is the probe: its walk reports how
//     many of the k closest hold the record. A record replicated below K
//     is re-Put at the version read onto that walk's closest set; a
//     segment only with bytes that hash to its digest, and also when
//     this node's own copy failed that check. A segment no replica
//     answered for is counted lost (nothing to re-materialize from).
//  2. Reprovide: every live peer pings the nodes its provider records
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

	// heal is step 1 for one record: the Locate walk toward key asks each
	// of the K closest what it holds, so one walk is the read and the
	// health check, and a record held by fewer than K of them is re-Put
	// at the version read onto that same walk. A segment (digest set) is
	// read with its digest as the check, so a copy that fails it, this
	// node's own included, is not held and never wins. A bad copy in the
	// closest set leaves fewer than K holders, and the re-Put of genuine
	// bytes onto the walk overwrites it. A bad copy of this node's own is
	// re-Put over even at K holders (a write lands on its writer too). A
	// bad copy on a node the walk displaced is out of the re-Put's reach
	// and no reason for one. When the walk reached no genuine copy but a
	// bad one, a self-certifying read goes past them to a genuine copy.
	// heal returns the record it read and how many of the closest held
	// it; ok is false when no usable record was read (never written,
	// wholly lost, or no copy passing its digest), and nothing was re-Put.
	heal := func(key dht.Key, digest string) (val []byte, held int, ok bool) {
		var valid func([]byte) bool
		tampered := new(int)
		if digest != "" {
			valid, tampered = digestCheck(digest)
		}
		loc, cost, err := d.Locate(context.Background(), key, valid)
		pass.Cost = pass.Cost.Seq(cost)
		held, val = loc.Replicas(), loc.Value
		if *tampered > 0 && errors.Is(err, dht.ErrNotFound) {
			val, cost, err = fetchSegmentCtx(context.Background(), d, digest)
			pass.Cost = pass.Cost.Seq(cost)
		}
		if err != nil {
			return nil, held, false
		}
		own, mine := d.Local(key)
		if held < k || mine && digest != "" && !bytes.Equal(own, val) {
			_, cost, err := d.PutAt(loc.Walk, val, loc.Seq)
			pass.Cost = pass.Cost.Seq(cost)
			switch {
			case err != nil: // no replica took it; the next pass retries
			case digest == "":
				pass.Republished++
			default:
				pass.Reseeded++
				pass.ReseededBytes += int64(len(val))
			}
		}
		return val, held, true
	}

	// 1. Shard pointers, then each pointer's segment chain.
	for shard := 0; shard < c.cfg.NumShards; shard++ {
		val, _, ok := heal(pointerKey(shard), "")
		if !ok {
			continue
		}
		pass.ProbedKeys++
		ptr, err := decodeShardPointer(val)
		if err != nil {
			continue
		}
		for _, digest := range ptr.Digests {
			pass.ProbedKeys++
			// Lost means NOTHING answered: a failed read or digest check
			// with a live replica on record is transient — the next pass
			// retries instead of declaring data gone under a storm.
			if _, held, ok := heal(dht.KeyOfString(index.SegmentKey(digest)), digest); !ok && held == 0 {
				pass.SegmentsLost++
			}
		}
	}

	// 2. Provider republish from every live peer, then every bee.
	nodes := slices.Clone(c.Peers)
	for _, b := range c.Bees {
		nodes = append(nodes, b.Peer)
	}
	for _, p := range nodes {
		if c.Net.IsDown(p.Addr()) {
			continue
		}
		n, cost := p.Reprovide()
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
	Ready       bool `json:"ready"`
	ShardsTotal int  `json:"shards_total"`
	ShardsOK    int  `json:"shards_ok"`
	// Failed lists the shards whose pointer record is unreachable.
	Failed []int `json:"failed_shards,omitempty"`
	// Cost is the DHT probe traffic the readiness check itself paid.
	Cost netsim.Cost `json:"-"`
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
