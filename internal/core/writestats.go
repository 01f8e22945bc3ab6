package core

import "sort"

// WriteStats is the cluster's accumulated write-path accounting: round
// counters summed over every materialize pass, plus a snapshot of the
// current segment-chain tier layout. The write-amplification contract
// (docs/indexing.md) is asserted against these: under tiered compaction
// Amplification stays O(log shard bytes) at steady ingest.
type WriteStats struct {
	// Rounds counts processed rounds (ProcessRoundReceipt calls).
	Rounds int
	// SegmentWrites / PointerWrites / Compactions sum the per-round
	// receipt counters of the same names.
	SegmentWrites int
	PointerWrites int
	Compactions   int
	// IngestedBytes sums new segment bytes (each winning segment once);
	// CompactedBytes sums merged-segment bytes compaction rewrote.
	IngestedBytes  int64
	CompactedBytes int64
	// SegmentsPerTier is the current chain layout aggregated across
	// shards: SegmentsPerTier[k] counts level-k runs.
	SegmentsPerTier []int
}

// Amplification is the write-amplification ratio: every byte the write
// path put into segment records (ingest + rewrites) over the bytes
// ingest actually produced. 0 before any ingest.
func (w WriteStats) Amplification() float64 {
	if w.IngestedBytes == 0 {
		return 0
	}
	return float64(w.IngestedBytes+w.CompactedBytes) / float64(w.IngestedBytes)
}

// noteShardTiers records the tier layout of every shard pointer a
// materialize pass just wrote, for the WriteStats snapshot. Reading the
// layout from the in-hand pointers (not the DHT) keeps stats serving
// free of network draws.
func (c *Cluster) noteShardTiers(shardOrder []int, wrote []bool, ptrs []ShardPointer) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	for j, s := range shardOrder {
		if !wrote[j] {
			continue
		}
		levels := make([]int, len(ptrs[j].Digests))
		for i := range levels {
			levels[i] = ptrs[j].levelOf(i)
		}
		c.shardTiers[s] = levels
	}
}

// noteRoundReceipt folds one processed round's counters into the
// accumulated write stats.
func (c *Cluster) noteRoundReceipt(r RoundReceipt) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.write.Rounds++
	c.write.SegmentWrites += r.SegmentWrites
	c.write.PointerWrites += r.PointerWrites
	c.write.Compactions += r.Compactions
	c.write.IngestedBytes += r.IngestedBytes
	c.write.CompactedBytes += r.CompactedBytes
}

// WriteStats returns a snapshot of the accumulated write-path counters
// and the current per-tier segment counts. Safe for concurrent use (the
// daemon serves it while rounds run); never touches the DHT.
func (c *Cluster) WriteStats() WriteStats {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	out := c.write
	maxLevel := -1
	shards := make([]int, 0, len(c.shardTiers))
	for s := range c.shardTiers {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	for _, s := range shards {
		for _, l := range c.shardTiers[s] {
			if l > maxLevel {
				maxLevel = l
			}
		}
	}
	if maxLevel >= 0 {
		out.SegmentsPerTier = make([]int, maxLevel+1)
		for _, s := range shards {
			for _, l := range c.shardTiers[s] {
				out.SegmentsPerTier[l]++
			}
		}
	}
	return out
}
