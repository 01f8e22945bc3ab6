package core

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
)

// ShardPointer is the mutable DHT record listing the segment chain of one
// index shard. Segments themselves are immutable, content-addressed
// records; the pointer is versioned (DHT sequence numbers) so later
// updates win.
//
// Levels records each run's compaction tier under the tiered policy:
// Levels[i] is the tier of Digests[i] (0 = a raw round segment, k = the
// product of k merges). A nil Levels — a pre-tiered pointer, or one
// written by the monolithic policy — means every run is level 0. The
// tiered writer maintains the invariant that levels are non-increasing
// along the chain (appends land level-0 runs at the end; a merge
// replaces a level's contiguous run block with one higher-level run at
// the block's start), which is what makes every merge a contiguous,
// precedence-preserving splice under index.Merge's oldest-first
// semantics.
//
// Gen is the chain's index generation (contracts.QueenBee.IndexGen) the
// writing materialize pass ran at. Pointers only move in the pass that
// follows an index-task finalization, so each writing pass carries a
// newer generation than the last, and a pass writes each shard once
// (the monolithic policy's compaction rewrites it with the same
// documents, merged): a record stamped with the chain's current
// generation is the newest one, and a reader can accept it from a
// single replica (Frontend.readPointer). Zero means unstamped
// (hand-written pointers) and never verifies.
type ShardPointer struct {
	Digests []string // segment digests, oldest first
	Levels  []int    `json:",omitempty"` // compaction tier per digest (nil = all level 0)
	Version uint64
	Gen     uint64 `json:",omitempty"` // index generation of the writing pass (0 = unstamped)
}

// currentAt reports whether the pointer is provably the newest as of
// index generation gen: stamped, and not older than the chain. gen 0
// (no index task ever finalized) verifies nothing.
func (p ShardPointer) currentAt(gen uint64) bool {
	return gen > 0 && p.Gen >= gen
}

// levelOf returns the tier of run i, treating a nil/short Levels slice
// as level 0 (legacy pointers).
func (p ShardPointer) levelOf(i int) int {
	if i < len(p.Levels) {
		return p.Levels[i]
	}
	return 0
}

// IndexStats is the global record frontends use for BM25 collection
// statistics.
type IndexStats struct {
	Docs    int
	Tokens  uint64
	Version uint64
}

// StatsKey names the DHT record holding the global index statistics
// (exported so determinism soaks can diff raw DHT state).
const StatsKey = "qb:stats"

func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("core: encoding %T: %v", v, err))
	}
	return b
}

// decodeShardPointer parses and validates a pointer record. The bytes
// come from outside the process — whichever replica answered — so every
// reader decodes through here: each digest must have the form
// index.DigestOf prints, and Levels is either absent or one
// non-negative tier per digest.
func decodeShardPointer(val []byte) (ShardPointer, error) {
	var ptr ShardPointer
	if err := json.Unmarshal(val, &ptr); err != nil {
		return ShardPointer{}, err
	}
	if len(ptr.Levels) != 0 && len(ptr.Levels) != len(ptr.Digests) {
		return ShardPointer{}, fmt.Errorf("%d levels for %d digests", len(ptr.Levels), len(ptr.Digests))
	}
	for _, l := range ptr.Levels {
		if l < 0 {
			return ShardPointer{}, fmt.Errorf("negative level %d", l)
		}
	}
	for i, dg := range ptr.Digests {
		if !index.IsDigest(dg) {
			return ShardPointer{}, fmt.Errorf("digest %d is not 64 lower-case hex characters", i)
		}
	}
	return ptr, nil
}

// readShardPointer fetches a shard's pointer record through a DHT node.
func readShardPointer(d *dht.Node, shard int) (ShardPointer, netsim.Cost, error) {
	ptr, _, cost, err := readShardPointerCtx(context.Background(), d, shard)
	return ptr, cost, err
}

// readShardPointerCtx is the quorum walk with a request lifecycle: a
// cancelled context abandons the read mid-lookup with the partial cost.
// It also names the nearest replica that returned the winning record
// (see dht.Node.GetHolderCtx), which the query path remembers.
func readShardPointerCtx(ctx context.Context, d *dht.Node, shard int) (ShardPointer, dht.Contact, netsim.Cost, error) {
	val, _, holder, cost, err := d.GetHolderCtx(ctx, dht.KeyOfString(index.ShardPointerKey(shard)))
	if err != nil {
		return ShardPointer{}, dht.Contact{}, cost, err
	}
	ptr, err := decodeShardPointer(val)
	if err != nil {
		return ShardPointer{}, dht.Contact{}, cost, fmt.Errorf("core: corrupt shard pointer %d: %w", shard, err)
	}
	return ptr, holder, cost, nil
}

// writeShardPointer stores a pointer with its version as DHT sequence.
func writeShardPointer(d *dht.Node, shard int, ptr ShardPointer) (netsim.Cost, error) {
	_, cost, err := d.Put(dht.KeyOfString(index.ShardPointerKey(shard)), encodeJSON(ptr), ptr.Version)
	return cost, err
}

// appendSegmentsToShard reads a shard pointer once, appends every digest
// not already present (preserving the given order) and writes back one
// bumped version — the batch read-modify-write of the round engine. A
// round that lands K segments on a shard costs one RMW, not K. The
// returned pointer reflects the written state so compaction can reuse it
// without re-reading; wrote reports whether a pointer write happened.
// gen is the pass's index generation, stamped on every written pointer.
func appendSegmentsToShard(d *dht.Node, shard int, gen uint64, digests []string) (ptr ShardPointer, cost netsim.Cost, wrote bool, err error) {
	ptr, cost, err = readShardPointer(d, shard)
	if err != nil && err != dht.ErrNotFound {
		// Unreachable shard record: surface the error.
		return ptr, cost, false, err
	}
	existing := make(map[string]bool, len(ptr.Digests))
	for _, dg := range ptr.Digests {
		existing[dg] = true
	}
	appended := false
	for _, dg := range digests {
		if existing[dg] {
			continue
		}
		existing[dg] = true
		ptr.Digests = append(ptr.Digests, dg)
		appended = true
	}
	if !appended {
		return ptr, cost, false, nil
	}
	ptr.Version++
	ptr.Gen = gen
	wcost, err := writeShardPointer(d, shard, ptr)
	return ptr, cost.Seq(wcost), err == nil, err
}

// writeSegment stores an immutable segment record under its digest key.
func writeSegment(d *dht.Node, digestHex string, data []byte) (netsim.Cost, error) {
	_, cost, err := d.Put(dht.KeyOfString(index.SegmentKey(digestHex)), data, 0)
	return cost, err
}

// readSegment fetches and hash-verifies a segment by digest. Segments
// are immutable, so the first replica suffices (the digest check below
// catches a tampered one).
func readSegment(d *dht.Node, digestHex string) (*index.Segment, netsim.Cost, error) {
	return readSegmentCtx(context.Background(), d, digestHex)
}

// readSegmentCtx is readSegment with a request lifecycle.
func readSegmentCtx(ctx context.Context, d *dht.Node, digestHex string) (*index.Segment, netsim.Cost, error) {
	val, cost, err := d.GetImmutableCtx(ctx, dht.KeyOfString(index.SegmentKey(digestHex)))
	if err != nil {
		return nil, cost, err
	}
	if got := index.DigestOf(val); got != digestHex {
		return nil, cost, fmt.Errorf("core: segment %.8s failed hash verification", digestHex)
	}
	seg, err := index.DecodeSegment(val)
	if err != nil {
		return nil, cost, err
	}
	return seg, cost, nil
}

// readStats fetches the global index statistics. The stats are the zero
// value alongside any error; dht.ErrNotFound means no reachable replica
// holds the record — absent, or lost to the network.
func readStats(d *dht.Node) (IndexStats, netsim.Cost, error) {
	var st IndexStats
	val, _, cost, err := d.Get(dht.KeyOfString(StatsKey))
	if err != nil {
		return st, cost, err
	}
	if err := json.Unmarshal(val, &st); err != nil {
		return IndexStats{}, cost, fmt.Errorf("core: decode index stats: %w", err)
	}
	return st, cost, nil
}

// bumpStats adds one document's token count to the global statistics.
func bumpStats(d *dht.Node, addDocs int, addTokens uint64) (netsim.Cost, error) {
	// A failed read bumps from zero: the first bump has nothing to read,
	// and a low-versioned Put loses to any replica holding a newer record.
	st, cost, _ := readStats(d)
	st.Docs += addDocs
	st.Tokens += addTokens
	st.Version++
	_, wcost, err := d.Put(dht.KeyOfString(StatsKey), encodeJSON(st), st.Version)
	return cost.Seq(wcost), err
}

// compactionThreshold is the chain length at which a shard's segments
// are merged into one. Compaction is the off-chain optimization worker
// bees run so query-time merging stays cheap (ablation A4 measures the
// effect); the round engine checks it at most once per shard per round,
// against the pointer it just wrote.
const compactionThreshold = 8

// compactShardFromPtr merges a shard's segment chain into one segment
// when it has grown past the threshold, reusing the caller's
// already-read pointer (no extra DHT read). This is the monolithic
// policy (Config.MonolithicCompaction — the E19 control): every firing
// rewrites O(shard bytes). Returns the pointer as written, whether a
// compaction happened, and the merged bytes it rewrote.
func compactShardFromPtr(d *dht.Node, shard int, gen uint64, ptr ShardPointer) (ShardPointer, netsim.Cost, bool, int64, error) {
	var cost netsim.Cost
	if len(ptr.Digests) < compactionThreshold {
		return ptr, cost, false, 0, nil
	}
	var segs []*index.Segment
	for _, dg := range ptr.Digests {
		seg, c2, err := readSegment(d, dg)
		cost = cost.Seq(c2)
		if err != nil {
			return ptr, cost, false, 0, err
		}
		segs = append(segs, seg)
	}
	merged := index.Merge(segs)
	data := merged.Encode()
	digest := index.DigestOf(data)
	wcost, err := writeSegment(d, digest, data)
	cost = cost.Seq(wcost)
	if err != nil {
		return ptr, cost, false, 0, err
	}
	ptr.Digests = []string{digest}
	ptr.Version++
	ptr.Gen = gen
	wcost, err = writeShardPointer(d, shard, ptr)
	return ptr, cost.Seq(wcost), err == nil, int64(len(data)), err
}

// tieredFanout is the size-tiered compaction fan-out: once a level holds
// this many runs, all of them merge into one run at the next level. With
// one round segment landing per round, each ingested byte is rewritten
// once per level promotion, so steady-state bytes rewritten per round is
// O(round bytes · log_fanout(shard bytes)) instead of the monolithic
// policy's O(shard bytes).
const tieredFanout = 4

// tieredResult reports what one tiered shard materialization did beyond
// the plain append.
type tieredResult struct {
	// Compacted reports whether a merge happened; Level is the tier that
	// merged (meaningful only when Compacted).
	Compacted bool
	Level     int
	// CompactedBytes is the size of the merged segment written — the
	// write-amplification numerator next to the round's ingested bytes.
	CompactedBytes int64
}

// materializeShardTiered is the tiered write path: ONE pointer
// read-modify-write that both appends the round's level-0 segments and
// applies at most one merge. After the append, the lowest level holding
// at least tieredFanout runs (if any) has ALL its runs merged into one
// run at the next level — merging the whole bucket is what absorbs
// bursty rounds that land many segments on one shard at once. Tier
// selection, merge membership and the spliced chain order are pure
// functions of the pointer just read, never of map order or scheduling.
//
// Merged runs are restricted to the shard's own terms (numShards > 0):
// a round's level-0 segment covers the whole batch and lands on every
// shard its terms hash to, so merging it unrestricted would rewrite the
// full batch bytes once PER SHARD — write amplification multiplied by
// the shard fan-in. Restriction keeps each shard's rewrites to its own
// share (plus the full DocLens tombstone set; see Segment.Restrict),
// which is what holds global amplification to O(tiers), not
// O(tiers × shards). Queries never notice: a term is only ever looked
// up on the shard it hashes to.
//
// The chain a reader merges stays logically identical to the unmerged
// one: level-0 runs enter in chain order = Gen order, the levels along
// the chain are non-increasing, so a level's runs form a contiguous
// block and replacing the block with its index.Merge (oldest-first,
// newer-shadows-older) preserves document precedence exactly. Search
// results are byte-identical to the monolithic policy's
// (TestWriteTieredMatchesMonolithic asserts it).
func materializeShardTiered(d *dht.Node, shard, numShards int, gen uint64, digests []string) (ptr ShardPointer, cost netsim.Cost, wrote bool, res tieredResult, err error) {
	ptr, cost, err = readShardPointer(d, shard)
	if err != nil && err != dht.ErrNotFound {
		return ptr, cost, false, res, err
	}
	err = nil // a missing pointer just means a fresh shard
	existing := make(map[string]bool, len(ptr.Digests))
	for _, dg := range ptr.Digests {
		existing[dg] = true
	}
	// Normalize legacy pointers so Levels tracks Digests 1:1 from here on.
	for len(ptr.Levels) < len(ptr.Digests) {
		ptr.Levels = append(ptr.Levels, 0)
	}
	appended := false
	for _, dg := range digests {
		if existing[dg] {
			continue
		}
		existing[dg] = true
		ptr.Digests = append(ptr.Digests, dg)
		ptr.Levels = append(ptr.Levels, 0)
		appended = true
	}

	// Deterministic tier selection: the lowest level with a full bucket.
	counts := make(map[int]int)
	maxLevel := 0
	for i := range ptr.Digests {
		l := ptr.levelOf(i)
		counts[l]++
		if l > maxLevel {
			maxLevel = l
		}
	}
	mergeLevel := -1
	for l := 0; l <= maxLevel; l++ { // ascending scan, never map order
		if counts[l] >= tieredFanout {
			mergeLevel = l
			break
		}
	}

	if mergeLevel >= 0 {
		var segs []*index.Segment
		var keepDigests []string
		var keepLevels []int
		spliceAt := -1
		for i, dg := range ptr.Digests {
			if ptr.levelOf(i) == mergeLevel {
				seg, c2, rerr := readSegment(d, dg)
				cost = cost.Seq(c2)
				if rerr != nil {
					// Leave the chain unmerged; the append (if any) must
					// still land, so fall through to the pointer write.
					err = rerr
					break
				}
				segs = append(segs, seg)
				if spliceAt < 0 {
					spliceAt = len(keepDigests)
					keepDigests = append(keepDigests, "") // placeholder for the merged run
					keepLevels = append(keepLevels, mergeLevel+1)
				}
				continue
			}
			keepDigests = append(keepDigests, dg)
			keepLevels = append(keepLevels, ptr.levelOf(i))
		}
		if err == nil {
			merged := index.Merge(segs)
			if numShards > 0 {
				merged = merged.Restrict(func(t string) bool { return index.ShardOf(t, numShards) == shard })
			}
			data := merged.Encode()
			digest := index.DigestOf(data)
			var wcost netsim.Cost
			wcost, err = writeSegment(d, digest, data)
			cost = cost.Seq(wcost)
			if err == nil {
				keepDigests[spliceAt] = digest
				ptr.Digests = keepDigests
				ptr.Levels = keepLevels
				res.Compacted = true
				res.Level = mergeLevel
				res.CompactedBytes = int64(len(data))
			}
		}
	}

	if !appended && !res.Compacted {
		return ptr, cost, false, res, err
	}
	ptr.Version++
	ptr.Gen = gen
	wcost, werr := writeShardPointer(d, shard, ptr)
	cost = cost.Seq(wcost)
	if werr != nil {
		return ptr, cost, false, res, werr
	}
	return ptr, cost, true, res, err
}
