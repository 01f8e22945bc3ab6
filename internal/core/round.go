package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"

	"repro/internal/fanout"
	"repro/internal/index"
	"repro/internal/netsim"
	"repro/internal/store"
)

// This file is the write-side round engine: the deterministic drive train
// behind ProcessRound. The bees are independent devices; their
// concurrency is simulated, not executed. Every simulated RPC of a round
// runs on the caller's goroutine in one fixed order, and each wave's cost
// folds its legs with Par. Each round runs three waves —
//
//  1. commit: every bee fetches the content of its new tasks, bee by bee;
//     each pure build (segment build and encode, rank computation) starts
//     on a goroutine as soon as its inputs are fetched, once per distinct
//     input bytes, so a quorum of honest bees builds a task once; then
//     every bee, bee by bee, announces the pages it fetched — the announce
//     wave, which nothing later in the round consumes — while the builds
//     run; then, bee by bee, each bee's commitments are submitted, so
//     transaction order is stable;
//  2. reveal: cheap on-chain calls, sequential;
//  3. materialize: bees write their winning immutable segments, then the
//     round's contributions are grouped by shard and every touched shard
//     gets exactly ONE pointer read-modify-write (and at most one
//     compaction) no matter how many segments landed on it. A round with
//     K segments over S shards costs O(S) mutable DHT round trips, not
//     O(K·S).
//
// Pure work runs on the fan-out (internal/fanout) and starts before the
// round's goroutine reads it. The chain checks each transaction's
// signature there, from its submission to the next seal. The compaction
// merges (runTable), pure functions of their runs' digests, start from
// runs the write side keeps open, by one rule (runTable.prepare): the
// merges the written pointers are due once a pass's appends land. The
// round's goroutine applies it at three fixed points: at the end of the
// commit wave, with the segments its builds predict the first pass lands,
// so those merges run beside the reveal and the segment puts; at the
// start of each materialize pass, with the segments it lands; and at its
// end, with none, which drops the merges the pass took and starts those
// of tier ≥ 1 it left due. One walk over a bucket writes the run of every
// shard that merges it, and a compaction takes the run only after
// fetching and checking every input itself.
// Only what a step reads gates it: the commit wave waits for its own
// builds, not for a merge, and a reader that finds a job not yet started
// runs it itself (fanout.Job.Wait).
//
// The receipt's makespan (RoundReceipt.Wave) is the round's longest
// DEPENDENCY chain, not the order the process issues work in: the
// publish's store wave runs beside the whole round while the bees fetch
// from the provider the transaction names, the announce wave runs beside
// the materialize phase, and inside that phase every pointer's quorum
// read overlaps the segment puts — only its write waits for them
// (MaterializePass).
//
// Determinism contract: the same seed produces the same receipts and
// byte-identical DHT state — routing tables, values, provider records —
// whatever GOMAXPROCS is.

// RoundError is one recorded write-path failure: which bee, which task
// (or shard), at which pipeline stage. The zero Shard value is
// meaningful, so "not shard-scoped" is -1.
type RoundError struct {
	Bee   string
	Task  string // empty for shard-scoped failures
	Shard int    // -1 when the failure is not shard-scoped
	Stage string // "build" | "segment-write" | "shard-append" | "compact"
	Err   error
}

// Error implements error.
func (e RoundError) Error() string {
	where := e.Task
	if e.Shard >= 0 {
		where = fmt.Sprintf("shard %d", e.Shard)
	}
	return fmt.Sprintf("core: bee %s: %s %s: %v", e.Bee, e.Stage, where, e.Err)
}

// RoundReceipt reports one ProcessRound: what was materialized, the
// simulated cost of the round's waves, the mutable-DHT write counters
// the batching claims are asserted against, and every write-path error
// the round surfaced (instead of swallowing).
type RoundReceipt struct {
	// Materialized counts tasks whose winning results landed this round
	// (index segments written plus finalized rank tasks).
	Materialized int

	// CommitWave is the commit compute as the bees experienced it — a
	// parallel wave, the slowest bee's time to commit: content fetches
	// and the build. CommitSerial is what a sequential driver would have
	// paid (the sum); their ratio is the write-side concurrency speedup
	// BenchmarkIngest reports.
	CommitWave   netsim.Cost
	CommitSerial netsim.Cost
	// AnnounceWave / AnnounceSerial account the bees' serve-cache
	// announces for the pages they fetched (store.Peer.Announce) the
	// same way. No commitment, reveal or pointer depends on them, so on
	// the round's makespan they sit beside the materialize phase.
	AnnounceWave   netsim.Cost
	AnnounceSerial netsim.Cost
	// MaterializeWave / MaterializeSerial account the materialize phase:
	// the Wave of each pass in Passes (serially: every segment put and
	// every leg one after the other).
	MaterializeWave   netsim.Cost
	MaterializeSerial netsim.Cost
	// Passes breaks each materialize pass down leg by leg — what
	// MaterializeWave is folded from.
	Passes []MaterializePass
	// StoreCost is the content-store wave of the publish step that
	// preceded this round (set by Engine.PublishBatch; zero for plain
	// rounds).
	StoreCost netsim.Cost
	// HintMisses counts the bees' page fetches that the provider named on
	// the publish transaction could not serve, so that they fell back to
	// the providers their discovery walk found.
	HintMisses int

	// SegmentWrites counts immutable segment puts; PointerWrites counts
	// shard-pointer read-modify-writes (at most one per touched shard
	// per materialize pass); Compactions counts chain merges. A pointer
	// write counts when at least one replica accepted it; a refused one is
	// in Errors.
	SegmentWrites int
	PointerWrites int
	Compactions   int

	// IngestedBytes is the round's new segment bytes (each winning
	// segment counted once, however many shards its terms hash to);
	// CompactedBytes is the merged-segment bytes compaction rewrote. The
	// write-amplification claim E19 tabulates is their ratio over a
	// steady-ingest run: (ingested+compacted)/ingested stays
	// O(log shard bytes) under tiered compaction.
	IngestedBytes  int64
	CompactedBytes int64

	// Errors lists every write-path failure of the round, also recorded
	// on the failing bee's Errs.
	Errors []RoundError
}

// Wave returns the round's total simulated makespan, its longest
// dependency chain: the commit wave, then the materialize phase with the
// announce wave beside it — and the publish store wave (if any) beside
// all of that or ahead of it, see afterStore.
func (r RoundReceipt) Wave() netsim.Cost {
	return r.afterStore(r.CommitWave.Seq(r.MaterializeWave.Par(r.AnnounceWave)))
}

// CommitStage is the round up to its commitments: the commit wave, with
// the store wave folded in by Wave's rule. The ingest pipeline's commit
// stage.
func (r RoundReceipt) CommitStage() netsim.Cost {
	return r.afterStore(r.CommitWave)
}

// afterStore folds the publish store wave in front of rest. The bees
// fetch from the provider the publish transaction names, which holds the
// content before the store wave's Provide has announced it, so when every
// such fetch was served nothing in the round waits for the store wave and
// it runs beside. A fetch that missed fell back to the provider records,
// which exist only once the store wave has landed.
func (r RoundReceipt) afterStore(rest netsim.Cost) netsim.Cost {
	if r.HintMisses > 0 {
		return r.StoreCost.Seq(rest)
	}
	return r.StoreCost.Par(rest)
}

// Serial returns what a fully sequential driver would have paid for the
// same round.
func (r RoundReceipt) Serial() netsim.Cost {
	return r.StoreCost.Seq(r.CommitSerial).Seq(r.AnnounceSerial).Seq(r.MaterializeSerial)
}

// MaterializePass is the cost of one materialize pass, leg by leg. The
// bees' segment puts form one wave (Collect, the slowest bee). Every
// touched shard's pointer then gets one read-modify-write; the legs are
// independent of one another, and each depends on the segment wave only
// from its mutation on: a pointer must not list a segment that is not
// stored yet, but reading the current pointer needs nothing the round
// wrote.
type MaterializePass struct {
	Collect netsim.Cost
	Shards  []RMWCost // one per touched shard, ascending shard order
}

// Wave is the pass's makespan: every leg runs as
// max(Collect, its read) → mutate → write, all legs in parallel. The
// segment wave's traffic is counted once, not once per leg.
func (p MaterializePass) Wave() netsim.Cost {
	var legs netsim.Cost
	for _, leg := range p.Shards {
		legs = legs.Par(leg.after(p.Collect.Latency))
	}
	return p.Collect.Par(legs)
}

// contribution is one winning index segment's input to the round's
// batched materialization: the shards its terms hash to.
type contribution struct {
	bee    *WorkerBee
	taskID string
	seg    *index.Segment // the segment the bee built, which digest names
	digest string
	bytes  int   // encoded segment size (ingested bytes, counted once)
	shards []int // sorted
}

// buildKey names one pure build by every input it reads (keyHash).
type buildKey [sha256.Size]byte

// built is one pure build's output. Every job of a round whose inputs
// were byte-identical holds the same built, result slice included.
type built struct {
	seg    *index.Segment // index builds: the segment result encodes (a colluder's layer builds its own)
	shards []int          // index builds: the shards seg lands on (shardsOf)
	result []byte
	digest string
	tokens uint64 // index builds: firstVersionTokens of seg
}

// buildSet is a round's pure builds by key. The first job with a new key
// starts its build on the fan-out (fanout.Start) and returns, so the
// build runs beside the RPCs the caller's goroutine sends next; every
// later job with that key shares the output. A reader waits for the one
// build it reads (Job.Wait). The round engine hands it only pure work —
// segment and rank builds — and keeps every simulated RPC on the
// caller's goroutine, in a fixed order, as the query side's shard waves
// do (Frontend.loadShardsCtx).
type buildSet struct {
	jobs  *fanout.Group
	byKey map[buildKey]*fanout.Job[built]
}

func newBuildSet() *buildSet {
	return &buildSet{jobs: fanout.New(), byKey: make(map[buildKey]*fanout.Job[built])}
}

// share returns the build named key, starting build if no job of the
// round has yet.
func (s *buildSet) share(key buildKey, build func() built) *fanout.Job[built] {
	if p, ok := s.byKey[key]; ok {
		return p
	}
	p := fanout.Start(s.jobs, build)
	s.byKey[key] = p
	return p
}

// keyHash accumulates a build key: the kind of build, then every input
// it reads, each length-prefixed so that no two input lists collide.
type keyHash struct{ h hash.Hash }

func newKeyHash(parts ...string) keyHash {
	k := keyHash{sha256.New()}
	for _, p := range parts {
		k.add([]byte(p))
	}
	return k
}

func (k keyHash) add(b []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(b)))
	k.h.Write(n[:])
	k.h.Write(b)
}

func (k keyHash) sum() (key buildKey) {
	k.h.Sum(key[:0])
	return key
}

// commitWave runs the bees' commit: bee by bee, every bee fetches the
// inputs of its new tasks, and each task's build starts on builds as soon
// as its inputs are in, unless another assignee fetched byte-identical
// inputs earlier in the round — then the two share one build. Then every
// bee, bee by bee, announces the pages it fetched, and only then, bee by
// bee, are its commitments submitted, each once the build it commits has
// returned, so transaction order is stable and the builds run beside the
// announce walks. The announces wait until every bee has fetched: no
// fetch of the round sees a serve-cache record the round made. They touch
// only the DHT and the commitments only the chain, so neither moves the
// other. Last, with every build read, the merges the round's first pass
// is predicted to make due are prepared (landings). Nothing here waits
// for a build it does not read, such as a merge.
func (c *Cluster) commitWave(r *RoundReceipt, builds *buildSet) {
	n := len(c.Bees)
	jobs := make([][]commitJob, n)
	anns := make([][]store.Announcement, n)
	costs := make([]netsim.Cost, n)
	misses := make([]int, n)
	for i, b := range c.Bees {
		jobs[i], anns[i], costs[i], misses[i] = b.fetchCommits(builds)
	}
	for i, b := range c.Bees {
		announce := b.Peer.Announce(anns[i])
		r.AnnounceWave = r.AnnounceWave.Par(announce)
		r.AnnounceSerial = r.AnnounceSerial.Seq(announce)
		b.Cost = b.Cost.Seq(costs[i]).Seq(announce)
		r.CommitWave = r.CommitWave.Par(costs[i])
		r.CommitSerial = r.CommitSerial.Seq(costs[i])
		r.HintMisses += misses[i]
	}
	for i, b := range c.Bees {
		b.submitCommits(jobs[i], r)
	}
	c.runs.prepare(c.written, landings(jobs, c.runs.open))
}

// landings predicts the appends of the round's first materialize pass:
// each new task's build, the first one in bee order, in task-ID order —
// the order materializePass appends a pass's segments in — with its
// encoded size, on the shards it lands on. It opens each predicted
// segment in open. It takes the honest build, so a colluding majority
// that wins the vote voids the prediction, and runTable.keepNamed closes
// the segment again.
func landings(jobs [][]commitJob, open map[string]*index.Segment) map[int][]landedRun {
	byTask := make(map[string]*built)
	var ids []string
	for _, bee := range jobs {
		for _, j := range bee {
			if _, seen := byTask[j.taskID]; seen || j.out == nil {
				continue
			}
			byTask[j.taskID] = j.out.Wait()
			ids = append(ids, j.taskID)
		}
	}
	sort.Strings(ids)
	appended := make(map[int][]landedRun)
	for _, id := range ids {
		b := byTask[id]
		if b.seg == nil {
			continue // a rank build lands on no shard
		}
		open[b.digest] = b.seg
		for _, s := range b.shards {
			appended[s] = append(appended[s], landedRun{b.digest, len(b.result)})
		}
	}
	return appended
}

// materializePass runs one batched materialize phase: bee by bee, each
// bee writes its winning immutable segments and collects contributions;
// then the contributions are grouped by shard and each touched shard, in
// ascending order, gets one pointer RMW (and at most one compaction) on
// the first contributing bee's DHT node. Before the first RMW the merges
// are prepared with the pass's appends, and after the last with none
// (runTable.prepare). May run twice per round (the janitor path finalizes
// stuck tasks mid-round); counters and costs accumulate.
func (c *Cluster) materializePass(r *RoundReceipt) {
	// The generation this pass materializes: every index task it will
	// write was finalized by the block just sealed, so stamping it on
	// each pointer lets readers recognise the record as current.
	gen := c.QB.IndexGen()
	var pass MaterializePass
	var serial netsim.Cost
	var all []contribution
	for _, b := range c.Bees {
		contribs, count, cost, errs := b.collectWins()
		b.Cost = b.Cost.Seq(cost)
		b.Errs = append(b.Errs, errs...)
		r.Errors = append(r.Errors, errs...)
		pass.Collect = pass.Collect.Par(cost)
		serial = serial.Seq(cost)
		r.Materialized += count
		r.SegmentWrites += len(contribs)
		all = append(all, contribs...)
	}
	for _, ctr := range all {
		r.IngestedBytes += int64(ctr.bytes)
		c.runs.open[ctr.digest] = ctr.seg
	}

	// Deterministic batch order: contributions sorted by task ID (each
	// task has exactly one designated writer, so IDs are unique), shards
	// ascending. The digest order within a shard pointer follows from
	// this, not from map iteration.
	sort.Slice(all, func(i, j int) bool { return all[i].taskID < all[j].taskID })
	landedByShard := make(map[int][]landedRun)
	writerByShard := make(map[int]*WorkerBee)
	var shardOrder []int
	for _, ctr := range all {
		for _, s := range ctr.shards {
			if _, seen := writerByShard[s]; !seen {
				writerByShard[s] = ctr.bee
				shardOrder = append(shardOrder, s)
			}
			landedByShard[s] = append(landedByShard[s], landedRun{ctr.digest, ctr.bytes})
		}
	}
	sort.Ints(shardOrder)
	c.runs.prepare(c.written, landedByShard)

	pass.Shards = make([]RMWCost, len(shardOrder))
	shardWrote := make([]bool, len(shardOrder))
	shardPtrs := make([]ShardPointer, len(shardOrder))
	for j, s := range shardOrder {
		w := writerByShard[s]
		ptr, cost, wrote, res, err := materializeShardTiered(w.Peer.DHT(), s, gen, landedByShard[s], c.runs)
		pass.Shards[j], shardWrote[j], shardPtrs[j] = cost, wrote, ptr
		var errs []RoundError
		if err != nil {
			errs = append(errs, RoundError{Bee: w.Name, Shard: s, Stage: "shard-append", Err: err})
		}
		if res.MergeErr != nil {
			errs = append(errs, RoundError{Bee: w.Name, Shard: s, Stage: "compact", Err: res.MergeErr})
		}
		w.Cost = w.Cost.Seq(pass.Shards[j].total())
		w.Errs = append(w.Errs, errs...)
		r.Errors = append(r.Errors, errs...)
		serial = serial.Seq(pass.Shards[j].total())
		if shardWrote[j] {
			r.PointerWrites++
		}
		if res.Compacted {
			r.Compactions++
			r.CompactedBytes += res.CompactedBytes
		}
	}
	c.noteWritten(shardOrder, shardWrote, shardPtrs)
	c.runs.keepNamed(c.written)
	c.runs.prepare(c.written, nil)

	r.Passes = append(r.Passes, pass)
	r.MaterializeWave = r.MaterializeWave.Seq(pass.Wave())
	r.MaterializeSerial = r.MaterializeSerial.Seq(serial)
}
