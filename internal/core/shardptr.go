package core

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
)

// ShardPointer is the mutable DHT record listing the segment chain of one
// index shard. Segments themselves are immutable, content-addressed
// records; the pointer is versioned (DHT sequence numbers) so later
// updates win.
//
// Levels records each run's compaction tier: Levels[i] is the tier of
// Digests[i] (0 = a raw round segment, k = the product of k merges). A
// nil Levels — a pre-tiered pointer — means every run is level 0. The
// writer maintains the invariant that levels are non-increasing
// along the chain (appends land level-0 runs at the end; a merge
// replaces a level's contiguous run block with one higher-level run at
// the block's start), which is what makes every merge a contiguous,
// precedence-preserving splice under index.Merge's oldest-first
// semantics.
//
// Gen is the chain's index generation (contracts.QueenBee.IndexGen) the
// writing materialize pass ran at. Pointers only move in the pass that
// follows an index-task finalization, so each writing pass carries a
// newer generation than the last, and a pass writes each shard once: a
// record stamped with the chain's current
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

// readShardPointerCtx is the quorum read of a shard's pointer record
// with a request lifecycle: a cancelled context abandons the read
// mid-lookup with the partial cost.
// It also names the nearest replica that returned the winning record
// (dht.Located.Holder), which the query path remembers.
func readShardPointerCtx(ctx context.Context, d *dht.Node, shard int) (ShardPointer, dht.Contact, netsim.Cost, error) {
	loc, cost, err := d.Locate(ctx, pointerKey(shard))
	if err != nil {
		return ShardPointer{}, dht.Contact{}, cost, err
	}
	ptr, err := decodeCurrentPointer(shard, loc.Value)
	if err != nil {
		return ShardPointer{}, dht.Contact{}, cost, err
	}
	return ptr, loc.Holder, cost, nil
}

// rmw is the one read → mutate → write sequence for the mutable DHT
// records, the shard pointers: one locating quorum read, the
// caller's mutation, and one STORE wave onto the closest set that read's
// walk converged on. The rule is one converged walk per key per
// operation — the write does not walk to the K nodes the read just
// finished walking to. A remembered walk can be stale only if a contact
// died between the read and the write; dht.Node.PutAt then re-walks once
// and writes again.
//
// mutate receives the winning record's bytes (nil when no reachable
// replica holds one — a fresh key, or one lost to the network) and
// returns the record to write with its DHT sequence (nil: nothing to
// write), the DHT traffic the mutation itself paid, and an error that
// abandons the write. A write no replica accepted (every one holds a
// newer sequence, or is unreachable) is an error too.
//
// The cost comes back split where the dependencies split (RMWCost): the
// read needs nothing the caller did before, the mutation and the write
// need the read — and whatever the new record names.
func rmw(d *dht.Node, key dht.Key, mutate func(cur []byte) (next []byte, seq uint64, cost netsim.Cost, err error)) (cost RMWCost, wrote bool, err error) {
	loc, rcost, err := d.Locate(context.Background(), key)
	cost.Read = rcost
	if err != nil && err != dht.ErrNotFound {
		return cost, false, err
	}
	next, seq, mcost, err := mutate(loc.Value)
	cost.Write = mcost
	if err != nil || next == nil {
		return cost, false, err
	}
	_, wcost, err := d.PutAt(loc.Walk, next, seq)
	cost.Write = mcost.Seq(wcost)
	return cost, err == nil, err
}

// RMWCost is what one read-modify-write cost, in the two halves a round
// schedules apart: the locating quorum read can run while the round's
// segments are still landing; the mutation (a due merge's segment
// traffic) and the STORE wave cannot start before the read is back and
// every segment the new record lists is stored.
type RMWCost struct {
	Read, Write netsim.Cost
}

// total is the operation end to end, as its writer paid it.
func (c RMWCost) total() netsim.Cost { return c.Read.Seq(c.Write) }

// after folds the operation behind gate, the moment its write-side
// dependencies are met: max(gate, read) → mutate → write. The gate is a
// point in time and carries no traffic.
func (c RMWCost) after(gate time.Duration) netsim.Cost {
	return netsim.Cost{Latency: gate}.Par(c.Read).Seq(c.Write)
}

// pointerKey is the DHT key of a shard's pointer record.
func pointerKey(shard int) dht.Key { return dht.KeyOfString(index.ShardPointerKey(shard)) }

// decodeCurrentPointer decodes the pointer record a read returned for
// shard; nil (a fresh shard, as rmw reports it) is the zero pointer.
func decodeCurrentPointer(shard int, cur []byte) (ShardPointer, error) {
	if cur == nil {
		return ShardPointer{}, nil
	}
	ptr, err := decodeShardPointer(cur)
	if err != nil {
		return ShardPointer{}, fmt.Errorf("core: corrupt shard pointer %d: %w", shard, err)
	}
	return ptr, nil
}

// appendDigests appends every digest not already in the chain,
// preserving the given order, and reports whether any was new. Levels
// is left to the caller, which pads it with level 0.
func (p *ShardPointer) appendDigests(digests []string) bool {
	existing := make(map[string]bool, len(p.Digests))
	for _, dg := range p.Digests {
		existing[dg] = true
	}
	appended := false
	for _, dg := range digests {
		if existing[dg] {
			continue
		}
		existing[dg] = true
		p.Digests = append(p.Digests, dg)
		appended = true
	}
	return appended
}

// writeSegment stores an immutable segment record under its digest key.
func writeSegment(d *dht.Node, digestHex string, data []byte) (netsim.Cost, error) {
	_, cost, err := d.Put(dht.KeyOfString(index.SegmentKey(digestHex)), data, 0)
	return cost, err
}

// fetchSegmentCtx fetches a segment's bytes by digest and verifies them
// against it. Segments are immutable, so the first replica suffices (the
// digest check catches a tampered one). A cancelled context abandons the
// lookup with the partial cost.
func fetchSegmentCtx(ctx context.Context, d *dht.Node, digestHex string) ([]byte, netsim.Cost, error) {
	val, cost, err := d.GetImmutableCtx(ctx, dht.KeyOfString(index.SegmentKey(digestHex)))
	if err != nil {
		return nil, cost, err
	}
	if got := index.DigestOf(val); got != digestHex {
		return nil, cost, fmt.Errorf("core: segment %.8s failed hash verification", digestHex)
	}
	return val, cost, nil
}

// readSegmentCtx fetches, hash-verifies and decodes a segment by digest.
func readSegmentCtx(ctx context.Context, d *dht.Node, digestHex string) (*index.Segment, netsim.Cost, error) {
	val, cost, err := fetchSegmentCtx(ctx, d, digestHex)
	if err != nil {
		return nil, cost, err
	}
	seg, err := index.DecodeSegment(val)
	if err != nil {
		return nil, cost, err
	}
	return seg, cost, nil
}

// tieredFanout is the size-tiered compaction fan-out: once a level holds
// this many runs, all of them merge into one run at the next level. With
// one round segment landing per round, each ingested byte is rewritten
// once per level promotion, so steady-state bytes rewritten per round is
// O(round bytes · log_fanout(shard bytes)), where merging a shard's
// whole chain would rewrite O(shard bytes).
const tieredFanout = 4

// tieredResult reports what one tiered shard materialization did beyond
// the plain append.
type tieredResult struct {
	// Compacted reports whether a merge happened.
	Compacted bool
	// CompactedBytes is the size of the merged segment written — the
	// write-amplification numerator next to the round's ingested bytes.
	CompactedBytes int64
	// MergeErr is why a due merge did not happen (a run unreadable, the
	// merged segment unwritable). The chain stays unmerged and the
	// round's append still lands, so it is not the pointer's error.
	MergeErr error
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
// share (plus the full DocLens tombstone set; see index.MergeEncode),
// which is what holds global amplification to O(tiers), not
// O(tiers × shards). Queries never notice: a term is only ever looked
// up on the shard it hashes to.
//
// The chain a reader merges stays logically identical to the unmerged
// one: level-0 runs enter in chain order = Gen order, the levels along
// the chain are non-increasing, so a level's runs form a contiguous
// block and replacing the block with its index.Merge (oldest-first,
// newer-shadows-older) preserves document precedence exactly
// (TestWriteTieredMatchesOracle checks the answers).
//
// runs is the materialize pass's table of decoded runs (see
// mergeFullTier), shared by every shard the pass writes.
func materializeShardTiered(d *dht.Node, shard, numShards int, gen uint64, digests []string, runs map[string]*index.Segment) (ptr ShardPointer, cost RMWCost, wrote bool, res tieredResult, err error) {
	cost, wrote, err = rmw(d, pointerKey(shard), func(cur []byte) ([]byte, uint64, netsim.Cost, error) {
		var mcost netsim.Cost
		var derr error
		if ptr, derr = decodeCurrentPointer(shard, cur); derr != nil {
			return nil, 0, mcost, derr
		}
		appended := ptr.appendDigests(digests)
		// The round's runs enter at level 0; the same padding normalizes a
		// legacy pointer so Levels tracks Digests 1:1 from here on.
		for len(ptr.Levels) < len(ptr.Digests) {
			ptr.Levels = append(ptr.Levels, 0)
		}

		res, mcost = mergeFullTier(d, shard, numShards, &ptr, runs)
		if !appended && !res.Compacted {
			return nil, 0, mcost, nil
		}
		ptr.Version++
		ptr.Gen = gen
		return encodeJSON(ptr), ptr.Version, mcost, nil
	})
	return ptr, cost, wrote, res, err
}

// mergeFullTier applies at most one tiered merge to ptr in place: the
// lowest level holding at least tieredFanout runs (if any) has all its
// runs fetched, merged (restricted to the shard's own terms when
// numShards > 0), written as one segment and spliced in as a single run
// at the next level. On any failure ptr is left untouched and the
// result carries the reason (MergeErr).
//
// The merge streams into the encoder (index.MergeEncode) with the
// shard's keep-predicate: the bytes are those of merging the runs each
// restricted to the shard's terms, but a level-0 run — a whole-batch
// segment every shard references — is decoded only for this shard's
// terms, one list at a time, and no merged segment is built. runs holds
// the runs the pass has decoded, by digest: every compactor still
// fetches each run and checks its digest itself, and a run whose
// verified bytes the pass already decoded (and validated — a pure
// function of those bytes) is not decoded again.
func mergeFullTier(d *dht.Node, shard, numShards int, ptr *ShardPointer, runs map[string]*index.Segment) (res tieredResult, cost netsim.Cost) {
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
	if mergeLevel < 0 {
		return res, cost
	}

	var segs []*index.Segment
	var keepDigests []string
	var keepLevels []int
	spliceAt := -1
	for i, dg := range ptr.Digests {
		if ptr.levelOf(i) != mergeLevel {
			keepDigests = append(keepDigests, dg)
			keepLevels = append(keepLevels, ptr.levelOf(i))
			continue
		}
		// The runs are immutable and independent: one fetch wave.
		val, c2, err := fetchSegmentCtx(context.Background(), d, dg)
		cost = cost.Par(c2)
		if err != nil {
			return tieredResult{MergeErr: err}, cost
		}
		seg, decoded := runs[dg]
		if !decoded {
			if seg, err = index.DecodeSegment(val); err != nil {
				return tieredResult{MergeErr: err}, cost
			}
			runs[dg] = seg
		}
		segs = append(segs, seg)
		if spliceAt < 0 {
			spliceAt = len(keepDigests)
			keepDigests = append(keepDigests, "") // placeholder for the merged run
			keepLevels = append(keepLevels, mergeLevel+1)
		}
	}
	var keep func(string) bool
	if numShards > 0 {
		keep = func(t string) bool { return index.ShardOf(t, numShards) == shard }
	}
	data := index.MergeEncode(segs, keep)
	digest := index.DigestOf(data)
	wcost, err := writeSegment(d, digest, data)
	cost = cost.Seq(wcost)
	if err != nil {
		return tieredResult{MergeErr: err}, cost
	}
	keepDigests[spliceAt] = digest
	ptr.Digests = keepDigests
	ptr.Levels = keepLevels
	return tieredResult{Compacted: true, CompactedBytes: int64(len(data))}, cost
}
