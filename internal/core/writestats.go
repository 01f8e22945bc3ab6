package core

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

// noteWritten records the pointer every shard a materialize pass wrote
// now holds. Reading the tier layout from the in-hand pointers (not the
// DHT) keeps stats serving free of network draws.
func (c *Cluster) noteWritten(shardOrder []int, wrote []bool, ptrs []ShardPointer) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	for j, s := range shardOrder {
		if wrote[j] {
			c.written[s] = ptrs[j]
		}
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
	for _, ptr := range c.written {
		for i := range ptr.Digests {
			l := ptr.levelOf(i)
			for len(out.SegmentsPerTier) <= l {
				out.SegmentsPerTier = append(out.SegmentsPerTier, 0)
			}
			out.SegmentsPerTier[l]++
		}
	}
	return out
}
