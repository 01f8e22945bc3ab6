package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/xrand"
)

// The verified pointer read (Frontend.readPointer) against the quorum
// walk (readShardPointer) as reference: whatever the frontend's own
// replica or the remembered holder does — serve an older stamp,
// garbage, nothing, or no answer at all — the record returned is the
// walk's, the response is that of a frontend that remembers nothing, and
// a holder is (re)learned only from a walk whose answer the chain
// vouches for.

// shardWords returns one word per shard that analyzes to a single term
// hashing to that shard, so a page's text picks the shards it touches.
func shardWords(t *testing.T, numShards int) []string {
	t.Helper()
	words := make([]string, numShards)
	for i, found := 0, 0; found < numShards; i++ {
		if i > 10_000 {
			t.Fatal("no word found for some shard")
		}
		w := fmt.Sprintf("ptrword%d", i)
		terms := index.AnalyzeQuery(w)
		if len(terms) != 1 {
			continue
		}
		if s := index.ShardOf(terms[0], numShards); words[s] == "" {
			words[s] = w
			found++
		}
	}
	return words
}

// pointerFixture is a small deployment whose first round wrote every
// shard, plus the frontend under test.
type pointerFixture struct {
	c     *Cluster
	fe    *Frontend
	owner *chain.Account
	words []string // words[s] lands on shard s
	pages int
}

// newPointerFixture attaches the frontend under test to a peer whose own
// DHT node holds no replica of the tested shards' pointers, so every
// read of them leaves the device: the farthest peer from their keys,
// outside the K closest even with a closer node down during a round.
// (TestQueryPointerLocalReplica covers the own replica.)
func newPointerFixture(t *testing.T, shards ...int) *pointerFixture {
	t.Helper()
	c := smallCluster(t)
	fx := &pointerFixture{c: c, owner: c.NewAccount("alice", 100_000), words: shardWords(t, c.Config().NumShards)}
	c.Seal()
	fx.publish(t, fx.words...)
	far, farRank := c.Peers[0], -1
	for _, p := range c.Peers {
		rank := len(dhtNodes(c))
		for _, s := range shards {
			rank = min(rank, closerNodes(c, pointerKey(s), p.DHT().Self().ID))
		}
		if rank > farRank {
			far, farRank = p, rank
		}
	}
	if k := c.Config().DHT.K; farRank <= k {
		t.Fatalf("every peer is among the %d+1 closest nodes to shards %v", k, shards)
	}
	for _, s := range shards {
		if _, held := far.DHT().Local(pointerKey(s)); held {
			t.Fatalf("the farthest peer holds shard %d's pointer", s)
		}
	}
	fx.fe = NewFrontend(c, far)
	return fx
}

// closerNodes counts the cluster's DHT nodes closer to key than id.
func closerNodes(c *Cluster, key, id dht.Key) int {
	n := 0
	for _, d := range dhtNodes(c) {
		if dht.DistanceLess(key, d.Self().ID, id) {
			n++
		}
	}
	return n
}

// publish indexes one page made of the given words in one round.
func (fx *pointerFixture) publish(t *testing.T, words ...string) {
	t.Helper()
	fx.pages++
	rr, err := fx.c.IndexBatch(fx.owner, []BatchPage{{
		URL:  fmt.Sprintf("dweb://ptr/%d", fx.pages),
		Text: strings.Join(words, " "),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Errors) > 0 {
		t.Fatalf("round errors: %v", rr.Errors)
	}
}

// writeShardPointer hand-writes a pointer record with its version as DHT
// sequence, bypassing the round engine.
func writeShardPointer(d *dht.Node, shard int, ptr ShardPointer) (netsim.Cost, error) {
	_, cost, err := d.Put(pointerKey(shard), encodeJSON(ptr), ptr.Version)
	return cost, err
}

// nodeAt finds the DHT node registered at addr.
func (fx *pointerFixture) nodeAt(t *testing.T, addr netsim.NodeID) *dht.Node {
	t.Helper()
	var out *dht.Node
	for _, d := range dhtNodes(fx.c) {
		if d.Self().Addr == addr {
			out = d
		}
	}
	if out == nil {
		t.Fatalf("no node at %s", addr)
	}
	return out
}

func (fx *pointerFixture) holder(shard int) (dht.Contact, bool) {
	fx.fe.mu.Lock()
	defer fx.fe.mu.Unlock()
	m, ok := fx.fe.ptrHolder[shard]
	return m.holder, ok
}

// read runs one readPointer and checks it against the quorum walk from
// the same node. It returns the counters' movement.
func (fx *pointerFixture) read(t *testing.T, shard int) (verified, walks int64) {
	t.Helper()
	want, _, werr := readShardPointer(fx.fe.peer.DHT(), shard)
	before := fx.fe.CacheStatsSnapshot()
	got, cost, gerr := fx.fe.readPointer(context.Background(), shard)
	after := fx.fe.CacheStatsSnapshot()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("shard %d: readPointer err = %v, quorum walk err = %v", shard, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard %d: readPointer = %+v, quorum walk = %+v", shard, got, want)
	}
	if cost.Msgs == 0 {
		t.Fatalf("shard %d: pointer read reported no traffic", shard)
	}
	return after.PtrVerified - before.PtrVerified, after.PtrWalks - before.PtrWalks
}

// learn reads shard until the frontend remembers a holder (one walk),
// proves the next read is a single verified RPC, and returns the holder.
func (fx *pointerFixture) learn(t *testing.T, shard int) dht.Contact {
	t.Helper()
	if v, w := fx.read(t, shard); v != 0 || w != 1 {
		t.Fatalf("cold read: verified %d walks %d, want one walk", v, w)
	}
	h, ok := fx.holder(shard)
	if !ok || h == (dht.Contact{}) {
		t.Fatalf("walk of a current pointer learned no holder")
	}
	_, _, cost, err := fx.fe.peer.DHT().GetFromCtx(context.Background(), h, dht.KeyOfString(index.ShardPointerKey(shard)))
	if err != nil || cost.Msgs != 1 {
		t.Fatalf("direct holder read: cost %+v err %v, want one RPC", cost, err)
	}
	if v, w := fx.read(t, shard); v != 1 || w != 0 {
		t.Fatalf("warm read: verified %d walks %d, want one verified answer", v, w)
	}
	return h
}

// sameAnswer checks the frontend's response to a query against that of
// a frontend on the same peer that remembers nothing.
func (fx *pointerFixture) sameAnswer(t *testing.T, raw string) {
	t.Helper()
	q := Query{Raw: raw, Mode: PlanAll, Limit: 10}
	got, gerr := fx.fe.ExecuteCtx(context.Background(), q)
	want, werr := NewFrontend(fx.c, fx.fe.peer).ExecuteCtx(context.Background(), q)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%q: err = %v, memo-less frontend err = %v", raw, gerr, werr)
	}
	if !reflect.DeepEqual(got.Results, want.Results) || got.Total != want.Total {
		t.Fatalf("%q: results %+v (total %d), memo-less frontend %+v (total %d)",
			raw, got.Results, got.Total, want.Results, want.Total)
	}
	if gerr == nil && got.Total == 0 {
		t.Fatalf("%q matched nothing", raw)
	}
}

// (a) The holder was down while a round rewrote the shard and came back
// with the previous generation's record.
func TestQueryPointerHolderOlderStamp(t *testing.T) {
	const shard = 2
	fx := newPointerFixture(t, shard)
	h := fx.learn(t, shard)

	fx.c.Net.SetDown(h.Addr, true)
	fx.publish(t, fx.words...)
	fx.c.Net.SetDown(h.Addr, false)

	if v, w := fx.read(t, shard); v != 0 || w != 1 {
		t.Fatalf("stale holder: verified %d walks %d, want the walk", v, w)
	}
	h2, ok := fx.holder(shard)
	if !ok || h2 == h {
		t.Fatalf("holder after fallback = %+v (ok=%v), want a replica other than the stale %s", h2, ok, h.Addr)
	}
	if v, w := fx.read(t, shard); v != 1 || w != 0 {
		t.Fatalf("after re-learning: verified %d walks %d, want one verified answer", v, w)
	}
	fx.sameAnswer(t, fx.words[shard])
}

// (b) The holder returns bytes that do not decode as a pointer.
func TestQueryPointerHolderGarbage(t *testing.T) {
	const shard = 5
	fx := newPointerFixture(t, shard)
	h := fx.learn(t, shard)

	// Sequence 0 loses every quorum, so the walk's answer is untouched.
	fx.nodeAt(t, h.Addr).StoreLocal(dht.KeyOfString(index.ShardPointerKey(shard)), []byte(`{"Digests":["x"],"Gen":99}`), 0)

	if v, w := fx.read(t, shard); v != 0 || w != 1 {
		t.Fatalf("garbage holder: verified %d walks %d, want the walk", v, w)
	}
	if h2, ok := fx.holder(shard); !ok || h2 == h {
		t.Fatalf("holder after fallback = %+v (ok=%v), want a replica other than %s", h2, ok, h.Addr)
	}
	fx.sameAnswer(t, fx.words[shard])
}

// (c) The holder answers but has no record: to the reader, a replica
// that lost the record is a node that never held it.
func TestQueryPointerHolderLostRecord(t *testing.T) {
	const shard = 1
	fx := newPointerFixture(t, shard)
	fx.learn(t, shard)

	key := dht.KeyOfString(index.ShardPointerKey(shard))
	var empty dht.Contact
	for _, d := range dhtNodes(fx.c) {
		if _, _, _, err := fx.fe.peer.DHT().GetFromCtx(context.Background(), d.Self(), key); err == dht.ErrNotFound {
			empty = d.Self()
		}
	}
	if empty == (dht.Contact{}) {
		t.Fatal("every node holds the pointer; nothing models a lost record")
	}
	fx.fe.mu.Lock()
	fx.fe.ptrHolder[shard] = ptrMemo{holder: empty}
	fx.fe.mu.Unlock()

	if v, w := fx.read(t, shard); v != 0 || w != 1 {
		t.Fatalf("forgetful holder: verified %d walks %d, want the walk", v, w)
	}
	if h2, ok := fx.holder(shard); !ok || h2 == empty {
		t.Fatalf("holder after fallback = %+v (ok=%v), want a real replica", h2, ok)
	}
	fx.sameAnswer(t, fx.words[shard])
}

// (d) The holder is down.
func TestQueryPointerHolderDown(t *testing.T) {
	const shard = 6
	fx := newPointerFixture(t, shard)
	h := fx.learn(t, shard)

	fx.c.Net.SetDown(h.Addr, true)
	if v, w := fx.read(t, shard); v != 0 || w != 1 {
		t.Fatalf("dead holder: verified %d walks %d, want the walk", v, w)
	}
	if h2, ok := fx.holder(shard); !ok || h2 == h {
		t.Fatalf("holder after fallback = %+v (ok=%v), want a live replica", h2, ok)
	}
	fx.sameAnswer(t, fx.words[shard])
	if v, w := fx.read(t, shard); v != 1 || w != 0 {
		t.Fatalf("after re-learning: verified %d walks %d, want one verified answer", v, w)
	}
}

// TestQueryPointerLocalReplica: a frontend whose own DHT node holds a
// replica reads it first, under the rule a remote holder's answer
// meets. A current record costs nothing and is a verified read; an older
// stamp or garbage falls back to the walk, and a lost record to the
// remembered holder.
func TestQueryPointerLocalReplica(t *testing.T) {
	const shard = 4
	key := pointerKey(shard)
	// nearFixture moves the frontend to the node closest to the key.
	nearFixture := func(t *testing.T) (*pointerFixture, *dht.Node) {
		fx := newPointerFixture(t, shard)
		near := fx.c.Peers[0]
		for _, p := range fx.c.Peers {
			if dht.DistanceLess(key, p.DHT().Self().ID, near.DHT().Self().ID) {
				near = p
			}
		}
		if _, held := near.DHT().Local(key); !held {
			t.Fatalf("the closest peer holds no replica of shard %d", shard)
		}
		fx.fe = NewFrontend(fx.c, near)
		return fx, near.DHT()
	}
	// local reads once and checks it was the own replica, for free.
	local := func(t *testing.T, fx *pointerFixture) {
		t.Helper()
		want, _, werr := readShardPointer(fx.fe.peer.DHT(), shard)
		before := fx.fe.CacheStatsSnapshot()
		got, cost, err := fx.fe.readPointer(context.Background(), shard)
		after := fx.fe.CacheStatsSnapshot()
		if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("own replica read %+v (%v), quorum walk %+v (%v)", got, err, want, werr)
		}
		if cost != (netsim.Cost{}) {
			t.Fatalf("own replica read cost %+v, want nothing", cost)
		}
		if v, w := after.PtrVerified-before.PtrVerified, after.PtrWalks-before.PtrWalks; v != 1 || w != 0 {
			t.Fatalf("own replica read: verified %d walks %d, want one verified read", v, w)
		}
		if rtt, ok := fx.fe.rtt(shard); !ok || rtt != 0 {
			t.Fatalf("own replica read measured %v (%v), want a measured zero", rtt, ok)
		}
	}

	t.Run("current", func(t *testing.T) {
		fx, _ := nearFixture(t)
		local(t, fx)
		local(t, fx)
		if h, _ := fx.holder(shard); h != (dht.Contact{}) {
			t.Fatalf("own replica reads remembered holder %s", h.Addr)
		}
		fx.sameAnswer(t, fx.words[shard])
	})

	// The node missed a round that rewrote the shard and kept the
	// previous generation's record, at its lower sequence.
	t.Run("older-stamp", func(t *testing.T) {
		fx, d := nearFixture(t)
		old, _ := d.Local(key)
		prev, err := decodeShardPointer(old)
		if err != nil {
			t.Fatal(err)
		}
		fx.publish(t, fx.words[shard])
		d.StoreLocal(key, old, prev.Version)
		if v, w := fx.read(t, shard); v != 0 || w != 1 {
			t.Fatalf("stale own replica: verified %d walks %d, want the walk", v, w)
		}
		if _, ok := fx.holder(shard); !ok {
			t.Fatal("the walk of a current pointer learned no holder")
		}
		if v, w := fx.read(t, shard); v != 1 || w != 0 {
			t.Fatalf("after the walk: verified %d walks %d, want the remembered holder", v, w)
		}
		fx.sameAnswer(t, fx.words[shard])
	})

	t.Run("garbage", func(t *testing.T) {
		fx, d := nearFixture(t)
		local(t, fx)
		// Sequence 0 loses every quorum, so the walk's answer is untouched.
		d.StoreLocal(key, []byte(`{"Digests":["x"],"Gen":99}`), 0)
		if v, w := fx.read(t, shard); v != 0 || w != 1 {
			t.Fatalf("garbage own replica: verified %d walks %d, want the walk", v, w)
		}
		if rtt, ok := fx.fe.rtt(shard); ok {
			t.Fatalf("the walk kept the own replica's measurement %v", rtt)
		}
		fx.sameAnswer(t, fx.words[shard])
	})

	// To the reader, a node that lost its record is one that never held
	// it: a frontend remembering a holder and a free last read, on a node
	// with no record, asks the holder.
	t.Run("lost", func(t *testing.T) {
		fx := newPointerFixture(t, shard)
		h := fx.learn(t, shard)
		fx.fe.mu.Lock()
		fx.fe.ptrHolder[shard] = ptrMemo{holder: h, measured: true}
		fx.fe.mu.Unlock()
		if v, w := fx.read(t, shard); v != 1 || w != 0 {
			t.Fatalf("lost own replica: verified %d walks %d, want the remembered holder", v, w)
		}
		if h2, _ := fx.holder(shard); h2 != h {
			t.Fatalf("after the holder's answer the frontend remembers %s, want %s", h2.Addr, h.Addr)
		}
		if rtt, _ := fx.fe.rtt(shard); rtt == 0 {
			t.Fatal("the holder's answer kept the own replica's free measurement")
		}
		fx.sameAnswer(t, fx.words[shard])
	})
}

// (e) The latest pass did not rewrite the shard: its stamp is older than
// the chain, so it is read by the walk every time and never remembered.
func TestQueryPointerShardNotRewritten(t *testing.T) {
	const stale, fresh = 3, 7
	fx := newPointerFixture(t, stale, fresh)
	fx.learn(t, stale)
	fx.publish(t, fx.words[fresh])

	// First read spends the remembered holder's RPC, then walks.
	if v, w := fx.read(t, stale); v != 0 || w != 1 {
		t.Fatalf("first read: verified %d walks %d, want the walk", v, w)
	}
	for i := 0; i < 2; i++ {
		if _, ok := fx.holder(stale); ok {
			t.Fatal("a pointer the chain does not vouch for was remembered")
		}
		if v, w := fx.read(t, stale); v != 0 || w != 1 {
			t.Fatalf("read %d: verified %d walks %d, want the walk", i, v, w)
		}
	}
	fx.learn(t, fresh)
	fx.sameAnswer(t, fx.words[stale])
	fx.sameAnswer(t, fx.words[fresh])
}

// (f) No index task ever finalized: hand-written pointers — even ones
// claiming a generation — are never verified.
func TestQueryPointerGenZeroNeverVerifies(t *testing.T) {
	c := smallCluster(t)
	if gen := c.QB.IndexGen(); gen != 0 {
		t.Fatalf("fresh chain at index generation %d", gen)
	}
	b := index.NewBuilder(1)
	b.Add(index.DocIDOf("dweb://hand"), "handwritten")
	data := b.Build().Encode()
	digest := index.DigestOf(data)
	d := c.Peers[0].DHT()
	if _, err := writeSegment(d, digest, data); err != nil {
		t.Fatal(err)
	}
	shard := index.ShardOf(index.AnalyzeQuery("handwritten")[0], c.Config().NumShards)
	if _, err := writeShardPointer(d, shard, ShardPointer{Digests: []string{digest}, Version: 1, Gen: 7}); err != nil {
		t.Fatal(err)
	}
	fx := &pointerFixture{c: c, fe: NewFrontend(c, c.Peers[3])}
	for i := 0; i < 3; i++ {
		if v, w := fx.read(t, shard); v != 0 || w != 1 {
			t.Fatalf("read %d: verified %d walks %d, want the walk", i, v, w)
		}
		if _, ok := fx.holder(shard); ok {
			t.Fatal("holder remembered at index generation 0")
		}
	}
	segs, _, err := fx.fe.loadShardsCtx(reqBudget{}, 0, []int{shard})
	if err != nil || segs[shard].Postings(index.AnalyzeQuery("handwritten")[0]) == nil {
		t.Fatalf("hand-written shard did not load: %v", err)
	}
}

// TestQueryPointerForkedRecord pins the one case where the two paths
// part: a lost update. A writer whose read-modify-write could not see
// the newest record (every holder it asked was unreachable) writes a
// LOWER version stamped with the CURRENT generation, and the replicas of
// the newer version come back — version order and generation order now
// disagree. The walk serves the highest version; a frontend remembering
// a holder of the fork serves the fork, which the chain vouches for.
// The next pass that rewrites the shard settles it for both paths at
// once (so does a maintenance republish of the highest version, where
// the record is under-replicated enough for one to fire).
func TestQueryPointerForkedRecord(t *testing.T) {
	const shard, other = 2, 4
	fx := newPointerFixture(t, shard)
	fx.publish(t, fx.words[shard])
	h := fx.learn(t, shard)
	newest, _, err := readShardPointer(fx.fe.peer.DHT(), shard)
	if err != nil || newest.Version < 2 {
		t.Fatalf("newest pointer %+v, err %v", newest, err)
	}

	// The chain moves on without this shard, and the remembered holder
	// ends up with the forked record.
	fx.publish(t, fx.words[other])
	fork := ShardPointer{Digests: newest.Digests[:1], Version: newest.Version - 1, Gen: fx.c.QB.IndexGen()}
	fx.nodeAt(t, h.Addr).StoreLocal(dht.KeyOfString(index.ShardPointerKey(shard)), encodeJSON(fork), fork.Version)
	fx.fe.mu.Lock()
	fx.fe.ptrHolder[shard] = ptrMemo{holder: h}
	fx.fe.mu.Unlock()

	walked, _, err := readShardPointer(fx.fe.peer.DHT(), shard)
	if err != nil || !reflect.DeepEqual(walked, newest) {
		t.Fatalf("quorum walk = %+v (%v), want the highest version %+v", walked, err, newest)
	}
	got, cost, err := fx.fe.readPointer(context.Background(), shard)
	if err != nil || cost.Msgs != 1 || got.Version != fork.Version || got.Gen != fork.Gen || !reflect.DeepEqual(got.Digests, fork.Digests) {
		t.Fatalf("verified read = %+v (cost %+v, err %v), want the current-generation fork %+v in one RPC", got, cost, err, fork)
	}

	// The next pass reads the highest version, appends to it and stamps
	// the result: it outranks the fork on both orders, on every replica.
	fx.publish(t, fx.words[shard])
	for i := 0; i < 2; i++ {
		fx.read(t, shard)
	}
	if v, w := fx.read(t, shard); v != 1 || w != 0 {
		t.Fatalf("after the rewrite: verified %d walks %d, want one verified answer", v, w)
	}
	fx.sameAnswer(t, fx.words[shard])
}

// TestQueryPointerShortDigestRejected: a pointer record listing a
// malformed digest used to win the quorum read and crash the frontend
// in readSegmentCtx's error formatting once any record sat under the
// bogus segment key. It is rejected where it is decoded.
func TestQueryPointerShortDigestRejected(t *testing.T) {
	const shard = 0
	fx := newPointerFixture(t, shard)
	fx.learn(t, shard)
	d := fx.c.Peers[0].DHT()
	if _, err := writeShardPointer(d, shard, ShardPointer{Digests: []string{"x"}, Version: 999}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Put(dht.KeyOfString(index.SegmentKey("x")), []byte("anything"), 0); err != nil {
		t.Fatal(err)
	}
	_, err := fx.fe.ExecuteCtx(context.Background(), Query{Raw: fx.words[shard], Mode: PlanAll})
	if !errors.Is(err, ErrShardUnavailable) || !strings.Contains(err.Error(), "corrupt shard pointer") {
		t.Fatalf("err = %v, want a corrupt-pointer ErrShardUnavailable", err)
	}
	if _, ok := fx.holder(shard); ok {
		t.Fatal("holder of a corrupt pointer stayed remembered")
	}
	// The segment reader itself no longer slices the digest it was given.
	if _, _, err := readSegmentCtx(context.Background(), d, "x"); err == nil || !strings.Contains(err.Error(), "hash verification") {
		t.Fatalf("readSegmentCtx(short digest) err = %v, want hash verification failure", err)
	}
	// Maintenance skips the record instead of chasing its digests.
	fx.c.RunMaintenance()
}

// TestWritePointerStamped: the pointer writer stamps the pass's index
// generation on every write, merges included, a maintenance republish
// (raw bytes) carries the stamp to the replacement replicas, and a
// frontend reading the stamped chains answers as the oracle does.
func TestWritePointerStamped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 12
	cfg.NumBees = 3
	cfg.NumShards = 2 // concentrate chains so merges fire
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 1_000_000)
	c.Seal()
	orc := oracle.New(cfg.RankWeight)
	compactions := 0
	for round := 0; round < 4; round++ {
		for j := 0; j < 5; j++ {
			url := fmt.Sprintf("dweb://stamp/%d/%d", round, j)
			text := fmt.Sprintf("stamped pointer workload page %d of round %d", j, round)
			if _, err := c.Publish(alice, c.Peers[j], url, text, nil); err != nil {
				t.Fatal(err)
			}
			orc.Publish(url, text)
		}
		c.Seal()
		rr := c.ProcessRoundReceipt()
		if len(rr.Errors) > 0 {
			t.Fatalf("round %d: %v", round, rr.Errors)
		}
		compactions += rr.Compactions
		gen := c.QB.IndexGen()
		if want := uint64(5 * (round + 1)); gen != want {
			t.Fatalf("round %d: index generation %d, want %d", round, gen, want)
		}
		for shard := 0; shard < cfg.NumShards; shard++ {
			ptr, _, err := readShardPointer(c.Peers[11].DHT(), shard)
			if err != nil || ptr.Gen != gen {
				t.Fatalf("round %d shard %d: pointer %+v (err %v), want stamp %d", round, shard, ptr, err, gen)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no compaction fired; the merge writer was not exercised")
	}

	// Kill a replica holder; maintenance republishes the raw record.
	loc, _, err := c.Peers[11].DHT().Locate(context.Background(), pointerKey(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Net.SetDown(loc.Holder.Addr, true)
	if pass := c.RunMaintenance(); pass.Republished == 0 {
		t.Fatal("maintenance republished nothing after a replica died")
	}
	if ptr, _, err := readShardPointer(c.Peers[11].DHT(), 0); err != nil || ptr.Gen != c.QB.IndexGen() {
		t.Fatalf("pointer after repair %+v (err %v), want stamp %d", ptr, err, c.QB.IndexGen())
	}
	for _, q := range []string{"stamped workload", "round"} {
		resp, err := NewFrontend(c, c.Peers[11]).Search(q, 20)
		if err != nil {
			t.Fatal(err)
		}
		root, err := oracle.Flat(q, query.KindAnd)
		if err != nil {
			t.Fatal(err)
		}
		if diff := oracleDiff(resp, orc.Search(root, c.QB.PageRanks(), 0, 20)); diff != "" {
			t.Fatalf("query %q: %s", q, diff)
		}
	}
}

// TestQueryPointerSoak: seeded random publishes with replicas toggled
// down across rounds, maintenance on and off. After every round the
// verified read equals the quorum walk for every shard on every pool
// frontend, and every page sealed so far is findable on all of them.
// With at most two of fourteen peers down, every read-modify-write still
// sees the newest record, so version order and generation order agree —
// the precondition of that equality (TestQueryPointerForkedRecord is
// the case where they do not).
func TestQueryPointerSoak(t *testing.T) {
	for _, maintenance := range []bool{true, false} {
		t.Run(fmt.Sprintf("maintenance=%v", maintenance), func(t *testing.T) {
			pointerSoak(t, maintenance)
		})
	}
}

func pointerSoak(t *testing.T, maintenance bool) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.NumPeers = 14
	cfg.NumBees = 3
	cfg.Maintenance = maintenance
	c := NewCluster(cfg)
	owner := c.NewAccount("alice", 1_000_000)
	c.Seal()
	pool := NewFrontendPool(c, 3, true, 0)
	words := shardWords(t, cfg.NumShards)
	rng := xrand.New(cfg.Seed)

	var markers []string
	firstText := make(map[string]string)
	var down []netsim.NodeID
	for round := 0; round < 12; round++ {
		for _, a := range down {
			c.Net.SetDown(a, false)
		}
		down = down[:0]
		// Victims are peers that host no pool frontend (and never bees).
		for _, i := range rng.Sample(cfg.NumPeers-pool.Size(), rng.Intn(3)) {
			a := c.Peers[pool.Size()+i].Addr()
			c.Net.SetDown(a, true)
			down = append(down, a)
		}

		pages := make([]BatchPage, 1+rng.Intn(3))
		for i := range pages {
			marker := fmt.Sprintf("soakmark%dx%d", round, i)
			markers = append(markers, marker)
			text := marker
			for _, s := range rng.Sample(len(words), 1+rng.Intn(len(words))) {
				text += " " + words[s]
			}
			pages[i] = BatchPage{URL: "dweb://soak/" + marker, Text: text}
			firstText[pages[i].URL] = text
		}
		// IndexBatch's sequence with the content on a peer that stays up.
		if _, err := c.PublishBatch(owner, c.Peers[0], pages); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		c.Seal()
		if rr := c.ProcessRoundReceipt(); len(rr.Errors) > 0 {
			t.Fatalf("round %d: %v", round, rr.Errors)
		}
		checkStatsRecount(t, c, firstText)
		if st := c.QB.IndexStats(); st.Docs != len(markers) {
			t.Fatalf("round %d: %d docs on chain, %d pages sealed", round, st.Docs, len(markers))
		}

		for fi := 0; fi < pool.Size(); fi++ {
			fe := pool.Frontend(fi)
			for shard := 0; shard < cfg.NumShards; shard++ {
				want, _, werr := readShardPointer(fe.peer.DHT(), shard)
				got, _, gerr := fe.readPointer(context.Background(), shard)
				if werr != gerr || !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d frontend %d shard %d: readPointer = %+v (%v), quorum walk = %+v (%v)",
						round, fi, shard, got, gerr, want, werr)
				}
			}
			for _, m := range markers {
				resp, err := fe.Search(m, 5)
				if err != nil || len(resp.Results) != 1 {
					t.Fatalf("round %d frontend %d: sealed page %q not findable: %d results, err %v",
						round, fi, m, len(resp.Results), err)
				}
			}
		}
	}
	cs := pool.CacheStatsSnapshot()
	if cs.PtrVerified == 0 || cs.PtrWalks == 0 {
		t.Fatalf("soak exercised one path only: %+v", cs)
	}
	t.Logf("pointer reads: %d verified, %d walks", cs.PtrVerified, cs.PtrWalks)
}

// FuzzShardPointerDecode: pointer bytes come from whichever replica
// answered. Decoding never panics, and whatever it accepts is safe to
// hand to the segment reader and to a compaction — one level and one
// size per digest or none, levels never rising along the chain, no
// negative size — and survives a re-encode unchanged. A replica serving
// levels [0 0 1 0 0] would have a merge of runs 0, 1, 3 and 4 spliced
// ahead of run 2, whose older postings would then shadow runs 3 and 4.
func FuzzShardPointerDecode(f *testing.F) {
	dg := index.DigestOf([]byte("seed"))
	five := []string{dg, dg, dg, dg, dg}
	f.Add(encodeJSON(ShardPointer{Digests: []string{dg, dg}, Levels: []int{1, 0}, Version: 3, Gen: 2}))
	f.Add(encodeJSON(ShardPointer{Digests: []string{dg, dg}, Levels: []int{1, 0}, Sizes: []int{600_000, 0}, Version: 3, Gen: 2}))
	f.Add(encodeJSON(ShardPointer{Digests: []string{dg}, Version: 1}))
	f.Add(encodeJSON(ShardPointer{Digests: five, Levels: []int{0, 0, 1, 0, 0}, Version: 5}))
	f.Add(encodeJSON(ShardPointer{Digests: five, Levels: []int{2, 1, 1, 0, 0}, Sizes: []int{9, 8, 7, 6}, Version: 5}))
	f.Add(encodeJSON(ShardPointer{Digests: []string{dg, dg}, Sizes: []int{1, -1}, Version: 2}))
	f.Add([]byte(`{"Digests":["x"],"Version":999}`))
	f.Add([]byte(`{"Digests":["` + dg + `"],"Levels":[-1]}`))
	f.Add([]byte(`{"Digests":["` + dg + `"],"Levels":[0,0]}`))
	f.Add([]byte(`{"Digests":["` + strings.ToUpper(dg) + `"]}`))
	f.Add([]byte("not json"))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ptr, err := decodeShardPointer(data)
		if err != nil {
			if !reflect.DeepEqual(ptr, ShardPointer{}) {
				t.Fatalf("rejected input leaked %+v", ptr)
			}
			return
		}
		if len(ptr.Levels) != 0 && len(ptr.Levels) != len(ptr.Digests) || len(ptr.Sizes) != 0 && len(ptr.Sizes) != len(ptr.Digests) {
			t.Fatalf("accepted %d levels and %d sizes for %d digests", len(ptr.Levels), len(ptr.Sizes), len(ptr.Digests))
		}
		for i, d := range ptr.Digests {
			if !index.IsDigest(d) || fmt.Sprintf("%.8s", d) != d[:8] {
				t.Fatalf("accepted digest %q", d)
			}
			if ptr.levelOf(i) < 0 || i > 0 && ptr.levelOf(i) > ptr.levelOf(i-1) {
				t.Fatalf("accepted levels %v", ptr.Levels)
			}
			if ptr.sizeOf(i) < 0 {
				t.Fatalf("accepted size %d", ptr.sizeOf(i))
			}
		}
		enc := encodeJSON(ptr)
		again, err := decodeShardPointer(enc)
		if err != nil {
			t.Fatalf("re-encoded pointer rejected: %v", err)
		}
		if string(encodeJSON(again)) != string(enc) {
			t.Fatalf("round trip changed the record: %s → %s", enc, encodeJSON(again))
		}
	})
}
