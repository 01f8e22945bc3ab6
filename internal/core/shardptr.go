package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/dht"
	"repro/internal/fanout"
	"repro/internal/index"
	"repro/internal/netsim"
)

// ShardPointer is the mutable DHT record listing the segment chain of one
// index shard. Segments themselves are immutable, content-addressed
// records; the pointer is versioned (DHT sequence numbers) so later
// updates win.
//
// Levels records each run's compaction tier: Levels[i] is the tier of
// Digests[i] (0 = a raw round segment; a merge or a promotion moves a run
// one tier up). A nil Levels — a pre-tiered pointer — means every run is
// level 0. Levels are non-increasing along the chain (appends land
// level-0 runs at the end; a promotion relabels a level's leading runs
// one tier up; a merge replaces the level's remaining contiguous block
// with one higher-level run at the block's start), which is what makes
// every merge a contiguous, precedence-preserving splice under
// index.Merge's oldest-first semantics. decodeShardPointer rejects a
// record that breaks the invariant.
//
// Sizes records each run's encoded bytes, parallel to Digests: set from
// the segment's bytes when it is appended and from the merged run's
// bytes when a merge writes one. Nil or 0 means unknown (a pointer
// written before sizes were kept), and an unknown run is never
// promoted, so such a chain compacts by run count alone.
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
	Sizes   []int    `json:",omitempty"` // encoded bytes per digest (nil or 0 = unknown)
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

// sizeOf returns the encoded bytes of run i, 0 (unknown) past a nil/short
// Sizes slice.
func (p ShardPointer) sizeOf(i int) int {
	if i < len(p.Sizes) {
		return p.Sizes[i]
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
// index.DigestOf prints; Levels is either absent or one non-negative
// tier per digest, never rising along the chain (a rising level would
// make a merge splice a newer run ahead of an older one it skipped); and
// Sizes is either absent or one non-negative size per digest.
func decodeShardPointer(val []byte) (ShardPointer, error) {
	var ptr ShardPointer
	if err := json.Unmarshal(val, &ptr); err != nil {
		return ShardPointer{}, err
	}
	if len(ptr.Levels) != 0 && len(ptr.Levels) != len(ptr.Digests) {
		return ShardPointer{}, fmt.Errorf("%d levels for %d digests", len(ptr.Levels), len(ptr.Digests))
	}
	if len(ptr.Sizes) != 0 && len(ptr.Sizes) != len(ptr.Digests) {
		return ShardPointer{}, fmt.Errorf("%d sizes for %d digests", len(ptr.Sizes), len(ptr.Digests))
	}
	for i, l := range ptr.Levels {
		if l < 0 {
			return ShardPointer{}, fmt.Errorf("negative level %d", l)
		}
		if i > 0 && l > ptr.Levels[i-1] {
			return ShardPointer{}, fmt.Errorf("level %d of run %d rises above %d", l, i, ptr.Levels[i-1])
		}
	}
	for _, n := range ptr.Sizes {
		if n < 0 {
			return ShardPointer{}, fmt.Errorf("negative size %d", n)
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
	loc, cost, err := d.Locate(ctx, pointerKey(shard), nil)
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
	loc, rcost, err := d.Locate(context.Background(), key, nil)
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

// landedRun is one segment a pass appends to a shard pointer: its digest
// and its encoded bytes.
type landedRun struct {
	digest string
	size   int
}

// appendRuns appends, at level 0, every run not already in the chain,
// preserving the given order, and reports whether any was new. The same
// padding normalizes a legacy pointer, so Levels and Sizes track Digests
// 1:1 from here on.
func (p *ShardPointer) appendRuns(runs []landedRun) bool {
	for len(p.Levels) < len(p.Digests) {
		p.Levels = append(p.Levels, 0)
	}
	for len(p.Sizes) < len(p.Digests) {
		p.Sizes = append(p.Sizes, 0)
	}
	existing := make(map[string]bool, len(p.Digests))
	for _, dg := range p.Digests {
		existing[dg] = true
	}
	appended := false
	for _, r := range runs {
		if existing[r.digest] {
			continue
		}
		existing[r.digest] = true
		p.Digests = append(p.Digests, r.digest)
		p.Levels = append(p.Levels, 0)
		p.Sizes = append(p.Sizes, r.size)
		appended = true
	}
	return appended
}

// withAppended is a copy of p, sharing no slice with it, with runs
// appended (appendRuns).
func (p ShardPointer) withAppended(runs []landedRun) ShardPointer {
	next := p
	next.Digests, next.Levels, next.Sizes = slices.Clone(p.Digests), slices.Clone(p.Levels), slices.Clone(p.Sizes)
	next.appendRuns(runs)
	return next
}

// dueMerge names what the pointer's compaction does at the lowest level
// holding at least tieredFanout runs: it promotes each leading run of
// that level whose size exceeds the level's later runs combined, one
// level up, where it already sits in the chain and unrewritten; and it
// merges the runs left, by position in chain order, if tieredFanout of
// them are left. promoted and runs are both nil when no level is full. It
// is a pure function of the pointer, never of map order or scheduling.
//
// A run is promoted only when it outweighs the rest of its level, so a
// merge never rewrites a run that would dominate its output: a big batch
// moves up the tiers at no cost until runs of like size catch up with
// it. Uniform rounds never promote — a run would have to outweigh three
// of its peers together — and neither does a run of unknown size.
func (p ShardPointer) dueMerge() (level int, promoted, runs []int) {
	var counts []int
	for i := range p.Digests {
		l := p.levelOf(i)
		for len(counts) <= l {
			counts = append(counts, 0)
		}
		counts[l]++
	}
	for l, n := range counts { // ascending: the lowest full level
		if n < tieredFanout {
			continue
		}
		rest := 0
		for i := range p.Digests {
			if p.levelOf(i) == l {
				runs = append(runs, i)
				rest += p.sizeOf(i)
			}
		}
		for len(runs) > 0 {
			size := p.sizeOf(runs[0])
			rest -= size // the level's later runs
			if size <= rest {
				break
			}
			promoted, runs = append(promoted, runs[0]), runs[1:]
		}
		if len(runs) < tieredFanout {
			runs = nil
		}
		return l, promoted, runs
	}
	return 0, nil, nil
}

// writeSegment stores an immutable segment record under its digest key.
func writeSegment(d *dht.Node, digestHex string, data []byte) (netsim.Cost, error) {
	_, cost, err := d.Put(dht.KeyOfString(index.SegmentKey(digestHex)), data, 0)
	return cost, err
}

// fetchSegmentCtx fetches a segment's bytes by digest. Segments are
// self-certifying: the read takes the first replica whose bytes hash to
// the digest, and a tampered one is a miss at its holder, so the walk
// goes on to the next (dht.Node.GetCheckedCtx). The read fails when no
// copy it reached passed the check. A cancelled context abandons the
// lookup with the partial cost.
func fetchSegmentCtx(ctx context.Context, d *dht.Node, digestHex string) ([]byte, netsim.Cost, error) {
	valid, tampered := digestCheck(digestHex)
	val, cost, err := d.GetCheckedCtx(ctx, dht.KeyOfString(index.SegmentKey(digestHex)), valid)
	if err != nil && *tampered > 0 {
		return nil, cost, fmt.Errorf("core: segment %.8s failed hash verification on %d copies: %w", digestHex, *tampered, err)
	}
	return val, cost, err
}

// digestCheck returns a segment read's check, which accepts exactly the
// bytes that hash to digestHex, and the count of copies it rejected. A
// copy equal to one it accepted is accepted without hashing it again: a
// walk that reads every replica sees the same bytes K times.
func digestCheck(digestHex string) (valid func([]byte) bool, rejected *int) {
	var genuine []byte
	rejected = new(int)
	return func(v []byte) bool {
		switch {
		case genuine != nil && bytes.Equal(v, genuine):
		case index.DigestOf(v) == digestHex:
			genuine = v
		default:
			*rejected++
			return false
		}
		return true
	}, rejected
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

// tieredFanout is the tiered compaction fan-out: once a level holds this
// many runs, the leading runs that outweigh the rest of the level move
// up unrewritten and the others, if this many are left, merge into one
// run at the next level (dueMerge). Levels count merges, and the size
// rule keeps a merge to runs of like size, so with one round segment
// landing per round each ingested byte is rewritten about once per
// level, and steady-state bytes rewritten per round is
// O(round bytes · log_fanout(shard bytes)), where merging a shard's
// whole chain would rewrite O(shard bytes).
const tieredFanout = 4

// tieredResult reports what one tiered shard materialization did beyond
// the plain append.
type tieredResult struct {
	// Compacted reports whether a merge happened.
	Compacted bool
	// Promoted counts the runs moved one level up without a rewrite.
	Promoted int
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
// applies at most one compaction. After the append, the lowest level
// holding at least tieredFanout runs (if any) moves the leading runs
// that outweigh the rest of it up a level, and merges ALL the runs left
// into one run at the next level if tieredFanout of them are left —
// merging the whole bucket is what absorbs bursty rounds that land many
// segments on one shard at once. Tier selection, promotion, merge
// membership and the spliced chain order are pure functions of the
// pointer just read, never of map order or scheduling.
//
// Merged runs are restricted to the shard's own terms: a round's level-0
// segment covers the whole batch and lands on every shard its terms hash
// to, so merging it unrestricted would rewrite the full batch bytes once
// PER SHARD — write amplification multiplied by the shard fan-in.
// Restriction keeps each shard's rewrites to its own share (plus the full
// DocLens tombstone set; see index.MergeShards), which is what holds
// global amplification to O(tiers), not O(tiers × shards). Queries never
// notice: a term is only ever looked up on the shard it hashes to.
//
// The chain a reader merges stays logically identical to the unmerged
// one: level-0 runs enter in chain order = Gen order, the levels along
// the chain are non-increasing, so a level's runs form a contiguous
// block and replacing the block with its index.Merge (oldest-first,
// newer-shadows-older) preserves document precedence exactly
// (TestWriteTieredMatchesOracle checks the answers).
func materializeShardTiered(d *dht.Node, shard int, gen uint64, landed []landedRun, runs *runTable) (ptr ShardPointer, cost RMWCost, wrote bool, res tieredResult, err error) {
	cost, wrote, err = rmw(d, pointerKey(shard), func(cur []byte) ([]byte, uint64, netsim.Cost, error) {
		var mcost netsim.Cost
		var derr error
		if ptr, derr = decodeCurrentPointer(shard, cur); derr != nil {
			return nil, 0, mcost, derr
		}
		appended := ptr.appendRuns(landed)
		res, mcost = mergeFullTier(d, shard, &ptr, runs)
		if !appended && !res.Compacted && res.Promoted == 0 {
			return nil, 0, mcost, nil
		}
		ptr.Version++
		ptr.Gen = gen
		return encodeJSON(ptr), ptr.Version, mcost, nil
	})
	return ptr, cost, wrote, res, err
}

// mergeFullTier applies at most one tiered compaction to ptr in place:
// the pointer's due merge (dueMerge) relabels its promoted runs one
// level up, and has all the runs it merges fetched, merged restricted to
// the shard's terms, written as one segment and spliced in as a single
// run at the next level, where the bucket's first run was. A promoted
// run is neither fetched nor rewritten. On any failure ptr is left
// untouched and the result carries the reason (MergeErr).
//
// Every compactor fetches each run itself and checks its digest, as one
// wave: a forged replica fails this shard's merge. The merge is a pure
// function of the verified runs' digests, so once every fetch is checked
// it takes the run prepared for this shard and bucket (runTable), if
// any. Otherwise — the pointer read is not the one the last pass wrote —
// it merges inline, from the runs the table holds open or, failing that,
// from the fetched bytes, decoded.
func mergeFullTier(d *dht.Node, shard int, ptr *ShardPointer, runs *runTable) (res tieredResult, cost netsim.Cost) {
	level, promoted, members := ptr.dueMerge()
	if promoted == nil && members == nil {
		return res, cost
	}
	var run mergedRun
	if members != nil {
		bucket := make([]string, len(members))
		for i, at := range members {
			bucket[i] = ptr.Digests[at]
		}
		var err error
		if run, cost, err = mergeBucket(d, shard, bucket, runs); err != nil {
			return tieredResult{MergeErr: err}, cost
		}
		res.Compacted, res.CompactedBytes = true, int64(len(run.data))
	}
	res.Promoted = len(promoted)

	var digests []string
	var levels, sizes []int
	for i, dg := range ptr.Digests {
		l, size := ptr.levelOf(i), ptr.sizeOf(i)
		switch {
		case slices.Contains(promoted, i):
			l++
		case members == nil || l != level: // kept as it is
		case i == members[0]:
			dg, l, size = run.digest, level+1, len(run.data)
		default:
			continue // merged into the run at members[0]
		}
		digests, levels, sizes = append(digests, dg), append(levels, l), append(sizes, size)
	}
	ptr.Digests, ptr.Levels, ptr.Sizes = digests, levels, sizes
	return res, cost
}

// mergeBucket fetches every run of bucket, checks each, and writes the
// shard's merged run: the one prepared for this shard and bucket, if
// any, else one merged inline.
func mergeBucket(d *dht.Node, shard int, bucket []string, runs *runTable) (run mergedRun, cost netsim.Cost, err error) {
	prepared := runs.prepared[preparedKey{bucketKey(bucket), shard}]
	var segs []*index.Segment
	for _, dg := range bucket {
		// The runs are immutable and independent: one fetch wave.
		val, c2, err := fetchSegmentCtx(context.Background(), d, dg)
		cost = cost.Par(c2)
		if err != nil {
			return run, cost, err
		}
		if prepared == nil {
			seg, err := runs.openRun(dg, val)
			if err != nil {
				return run, cost, err
			}
			segs = append(segs, seg)
		}
	}
	if prepared != nil {
		run = (*prepared.Wait())[shard]
	} else {
		run = mergeRuns(segs, runs.numShards, []int{shard})[shard]
	}
	wcost, err := writeSegment(d, run.digest, run.data)
	cost = cost.Seq(wcost)
	if err != nil {
		return run, cost, err
	}
	runs.open[run.digest] = run.seg
	return run, cost, nil
}

// runTable is the write side's runs, held open, and the merges prepared
// from them. A run is open when a pointer the round engine last wrote
// (Cluster.written) names it and this process opened it: a designated
// writer's built segment, or a merge's output. So no compaction decodes
// bytes its own process encoded.
//
// A merge is a pure function of its bucket's run digests, so it is
// computed once, before a compaction reads it, on the table's fan-out
// (jobs), which outlives a round. One rule (prepare) decides which merges
// are prepared: those the written pointers are due once a pass's appends
// land. The round engine applies it at three fixed points (see round.go).
// Every shard predicted to merge one bucket gets its restricted run from
// one k-way walk (mergeRuns), so a level-0 bucket that every shard holds
// is walked once, not once a shard. Only the round's goroutine touches
// the table.
type runTable struct {
	numShards int
	jobs      *fanout.Group
	open      map[string]*index.Segment                      // by digest
	prepared  map[preparedKey]*fanout.Job[map[int]mergedRun] // a merge that writes the shard's run
}

// preparedKey names one shard's merge of one bucket (bucketKey).
type preparedKey struct {
	bucket buildKey
	shard  int
}

// mergedRun is one shard's merged run: the open view, the bytes the
// network gets (a copy: no record aliases the view) and their digest.
type mergedRun struct {
	seg    *index.Segment
	data   []byte
	digest string
}

// mergeGroup is the shards predicted to merge one bucket, and the
// bucket's runs, open, in chain order.
type mergeGroup struct {
	bucket buildKey
	segs   []*index.Segment
	shards []int
}

func newRunTable(numShards int) *runTable {
	return &runTable{
		numShards: numShards,
		jobs:      fanout.New(),
		open:      make(map[string]*index.Segment),
		prepared:  make(map[preparedKey]*fanout.Job[map[int]mergedRun]),
	}
}

// bucketKey names a merge by its runs' digests, in chain order.
func bucketKey(digests []string) buildKey {
	return newKeyHash(append([]string{"merge"}, digests...)...).sum()
}

// prepare makes the prepared merges exactly those the shards' next
// compactions are predicted to take: for every shard, the due merge
// (dueMerge) of the pointer written last with appended[shard] added —
// sizes included, since they decide which runs a promotion leaves out
// of the bucket. It keeps a merge already prepared, starts one walk per
// bucket for the shards whose merge is not, and drops every other. A
// bucket with a run not open is left out: the compaction merges it
// inline.
func (t *runTable) prepare(written []ShardPointer, appended map[int][]landedRun) {
	next := make(map[preparedKey]*fanout.Job[map[int]mergedRun])
	var fresh []mergeGroup
	for s, ptr := range written {
		ptr = ptr.withAppended(appended[s])
		_, _, members := ptr.dueMerge()
		if members == nil {
			continue
		}
		bucket := make([]string, len(members))
		segs := make([]*index.Segment, len(members))
		for i, at := range members {
			bucket[i] = ptr.Digests[at]
			segs[i] = t.open[bucket[i]]
		}
		if slices.Contains(segs, nil) {
			continue
		}
		key := preparedKey{bucketKey(bucket), s}
		if p := t.prepared[key]; p != nil {
			next[key] = p
			continue
		}
		if i := slices.IndexFunc(fresh, func(g mergeGroup) bool { return g.bucket == key.bucket }); i >= 0 {
			fresh[i].shards = append(fresh[i].shards, s)
		} else {
			fresh = append(fresh, mergeGroup{bucket: key.bucket, segs: segs, shards: []int{s}})
		}
	}
	numShards := t.numShards
	for _, g := range fresh {
		p := fanout.Start(t.jobs, func() map[int]mergedRun { return mergeRuns(g.segs, numShards, g.shards) })
		for _, s := range g.shards {
			next[preparedKey{g.bucket, s}] = p
		}
	}
	t.prepared = next
}

// openRun returns the run digest names, whose fetched bytes val have been
// checked against it: the open view if the table holds one, else val
// decoded — the trust boundary (index.DecodeSegment).
func (t *runTable) openRun(digest string, val []byte) (*index.Segment, error) {
	if seg := t.open[digest]; seg != nil {
		return seg, nil
	}
	return index.DecodeSegment(val)
}

// keepNamed closes every open run no written pointer names.
func (t *runTable) keepNamed(written []ShardPointer) {
	named := make(map[string]bool)
	for _, ptr := range written {
		for _, dg := range ptr.Digests {
			named[dg] = true
		}
	}
	for dg := range t.open {
		if !named[dg] {
			delete(t.open, dg)
		}
	}
}

// mergeRuns merges one bucket's runs into each of shards' restricted runs
// in one walk (index.MergeShards), each with the bytes the network gets
// and their digest. It is pure, so it runs as a build.
func mergeRuns(segs []*index.Segment, numShards int, shards []int) map[int]mergedRun {
	views := index.MergeShards(segs, numShards, shards)
	out := make(map[int]mergedRun, len(shards))
	for i, s := range shards {
		data := views[i].Encode()
		out[s] = mergedRun{seg: views[i], data: data, digest: index.DigestOf(data)}
	}
	return out
}
