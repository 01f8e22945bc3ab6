package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
	"repro/internal/store"
)

// corpusBatches cuts a seeded corpus into rounds of pagesPerRound pages.
func corpusBatches(seed uint64, rounds, pagesPerRound int) [][]BatchPage {
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = seed
	ccfg.NumDocs = rounds * pagesPerRound
	docs := corpus.Generate(ccfg).Docs
	batches := make([][]BatchPage, rounds)
	for r := range batches {
		for _, d := range docs[r*pagesPerRound : (r+1)*pagesPerRound] {
			batches[r] = append(batches[r], BatchPage{URL: d.URL, Text: d.Text, Links: d.Links})
		}
	}
	return batches
}

// docsFixture publishes the docs/indexing.md fixture — thirteen 32-page
// IndexBatch rounds on the default cluster, seed 1 — and returns the
// cluster and each round's receipt.
func docsFixture(t *testing.T) (*Cluster, []RoundReceipt) {
	t.Helper()
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 1<<40)
	c.Seal()
	var receipts []RoundReceipt
	for round, pages := range corpusBatches(cfg.Seed, 13, 32) {
		rr, err := c.IndexBatch(owner, pages)
		if err != nil || len(rr.Errors) > 0 {
			t.Fatalf("round %d: err=%v round errors=%v", round, err, rr.Errors)
		}
		receipts = append(receipts, rr)
	}
	return c, receipts
}

// TestWriteCriticalPath: a round's makespan is its longest dependency
// chain, and nothing else. Recomputed here from the receipt's per-leg
// costs with plain arithmetic — time to commit, then the announce wave
// beside a materialize phase in which every pointer waits for
// max(segment puts, its own quorum read) before its mutation and write,
// and the publish's store wave beside all of it — it must equal Wave()
// to the nanosecond, on plain and compacting rounds alike. In a round
// whose every hint served, the bees send no GET_PROVIDERS, and the
// announce wave is one walked ADD_PROVIDER per fetched page per assigned
// bee and nothing else. A last round whose transaction names a provider
// that does not exist makes every bee fall back to the provider records,
// which the store wave writes: that round folds store → commit → …,
// announces with one K-wide wave per page per bee on its discovery walk,
// and still records no error. The fold may reorder time, never traffic:
// every RPC the network carried during the round is billed exactly once
// (the segment wave's messages once, not once per leg), so wave, serial
// and the network's own counters agree. Wave() already carries the store
// wave, time and traffic: adding StoreCost to it counts that wave twice.
func TestWriteCriticalPath(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 10_000_000)
	c.Seal()
	// What the bees send toward provider records, per round: GET_PROVIDERS
	// messages, and ADD_PROVIDER messages by bee and key, with how many of
	// them asked for contacts (Closer: a walk, not a wave).
	bees := make(map[netsim.NodeID]bool)
	peers := slices.Clone(c.Peers)
	for _, b := range c.Bees {
		bees[b.Peer.Addr()] = true
		peers = append(peers, b.Peer)
	}
	var getProviders, adds, walked int
	announced := make(map[string]bool)
	for _, p := range peers {
		p := p
		c.Net.Register(p.Addr(), func(from netsim.NodeID, req any) (any, error) {
			v := reflect.ValueOf(req)
			switch kind := v.Type().String(); {
			case !bees[from]:
			case kind == "dht.getProvidersReq":
				getProviders++
			case kind == "dht.addProviderReq":
				adds++
				announced[fmt.Sprint(from, v.FieldByName("Key").Interface())] = true
				if v.FieldByName("Closer").Bool() {
					walked++
				}
			}
			return p.HandleRPC(from, req)
		})
	}
	compacting := 0
	batches := corpusBatches(cfg.Seed, 13, 8)
	missRound := len(batches) - 1
	for round, pages := range batches {
		before := c.Net.StatsSnapshot()
		getProviders, adds, walked = 0, 0, 0
		clear(announced)
		var rr RoundReceipt
		var err error
		if round == missRound {
			rr, err = indexBatchNamingProvider(c, owner, pages, "peer-gone")
		} else {
			rr, err = c.IndexBatch(owner, pages)
		}
		if err != nil || len(rr.Errors) > 0 {
			t.Fatalf("round %d: err=%v round errors=%v", round, err, rr.Errors)
		}
		after := c.Net.StatsSnapshot()
		if missed := rr.HintMisses > 0; missed != (round == missRound) {
			t.Fatalf("round %d: %d hint misses", round, rr.HintMisses)
		}

		var materialize, issueOrder time.Duration
		traffic := netsim.Cost{}
		count := func(cs ...netsim.Cost) {
			for _, c := range cs {
				traffic.Msgs += c.Msgs
				traffic.Bytes += c.Bytes
			}
		}
		for _, pass := range rr.Passes {
			gate := pass.Collect.Latency
			end, slowest := gate, time.Duration(0)
			count(pass.Collect)
			for _, leg := range pass.Shards {
				start := gate
				if leg.Read.Latency > start {
					start = leg.Read.Latency
				}
				if done := start + leg.Write.Latency; done > end {
					end = done
				}
				if whole := leg.Read.Latency + leg.Write.Latency; whole > slowest {
					slowest = whole
				}
				count(leg.Read, leg.Write)
			}
			materialize += end
			issueOrder += gate + slowest
		}
		if len(rr.Passes) != 1 || len(rr.Passes[0].Shards) != cfg.NumShards {
			t.Fatalf("round %d: passes %+v; the corpus batch must touch every shard once", round, rr.Passes)
		}
		if rr.MaterializeWave.Latency != materialize {
			t.Fatalf("round %d: MaterializeWave %v, the legs' dependency chains give %v", round, rr.MaterializeWave.Latency, materialize)
		}
		if materialize >= issueOrder {
			t.Fatalf("round %d: materialize %v is no shorter than reads queued behind the segment puts (%v)", round, materialize, issueOrder)
		}
		if traffic.Msgs != rr.MaterializeWave.Msgs || traffic.Bytes != rr.MaterializeWave.Bytes ||
			rr.MaterializeWave.Msgs != rr.MaterializeSerial.Msgs || rr.MaterializeWave.Bytes != rr.MaterializeSerial.Bytes {
			t.Fatalf("round %d: legs carried %d msgs / %d B, MaterializeWave bills %+v, MaterializeSerial %+v",
				round, traffic.Msgs, traffic.Bytes, rr.MaterializeWave, rr.MaterializeSerial)
		}

		beside := materialize
		if rr.AnnounceWave.Latency > beside {
			beside = rr.AnnounceWave.Latency
		}
		if round == missRound {
			if want := rr.StoreCost.Latency + rr.CommitWave.Latency + beside; rr.Wave().Latency != want {
				t.Fatalf("round %d: Wave() %v, store → commit → (materialize ∥ announce) gives %v", round, rr.Wave().Latency, want)
			}
		} else if want := max(rr.StoreCost.Latency, rr.CommitWave.Latency+beside); rr.Wave().Latency != want {
			t.Fatalf("round %d: Wave() %v, store ∥ (commit → (materialize ∥ announce)) gives %v", round, rr.Wave().Latency, want)
		}
		rest := rr.CommitWave.Seq(rr.MaterializeWave.Par(rr.AnnounceWave))
		if w := rr.Wave(); rr.StoreCost.Msgs == 0 || w.Msgs != rest.Msgs+rr.StoreCost.Msgs || w.Bytes != rest.Bytes+rr.StoreCost.Bytes {
			t.Fatalf("round %d: Wave() carries %d msgs / %d B; the round's %d / %d and the store wave's %d / %d",
				round, w.Msgs, w.Bytes, rest.Msgs, rest.Bytes, rr.StoreCost.Msgs, rr.StoreCost.Bytes)
		}
		if fetched := cfg.Contract.Quorum * len(pages); len(announced) != fetched || adds != rr.AnnounceWave.Msgs {
			t.Fatalf("round %d: announce wave %d msgs, %d ADD_PROVIDER from the bees for %d (bee, page) pairs; want %d pairs and nothing else",
				round, rr.AnnounceWave.Msgs, adds, len(announced), fetched)
		}
		if round == missRound {
			if getProviders == 0 || walked != 0 || adds != cfg.Contract.Quorum*len(pages)*cfg.DHT.K {
				t.Fatalf("round %d: %d GET_PROVIDERS, announce %d msgs (%d walking); want discovery, then one %d-wide wave per page per assigned bee and no walk",
					round, getProviders, adds, walked, cfg.DHT.K)
			}
		} else if getProviders != 0 || walked != adds {
			t.Fatalf("round %d: %d GET_PROVIDERS, announce %d msgs (%d walking); want no discovery and one walked ADD_PROVIDER per page per assigned bee",
				round, getProviders, adds, walked)
		}
		wave, serial := rr.Wave(), rr.Serial()
		if wave.Latency > serial.Latency || wave.Msgs != serial.Msgs || wave.Bytes != serial.Bytes {
			t.Fatalf("round %d: wave %+v vs serial %+v", round, wave, serial)
		}
		if sent, moved := int(after.Calls-before.Calls), after.Bytes-before.Bytes; wave.Msgs != sent || wave.Bytes != moved {
			t.Fatalf("round %d: receipt bills %d msgs / %d B, the network carried %d / %d", round, wave.Msgs, wave.Bytes, sent, moved)
		}
		if rr.Compactions > 0 {
			compacting++
		}
	}
	if compacting != 3 {
		t.Fatalf("%d compacting rounds, want three: the merge legs went unexercised", compacting)
	}
}

// The median plain round's makespan and store wave on
// TestPublishMakespanRatchet's fixture, as recorded once a served hint
// stopped discovering providers (before that: 401.9 and 150.0 ms; before
// hinted provider discovery became a K-wide converging walk, 458.2 and
// 150.0 ms; before converging walks went to arrival order, 565.7 and
// 235.8 ms; before Put and Provide stored along their walks, 596.2 and
// 374.0 ms), and the margin a change may add before the ratchet fails.
// ratchetMsgs is the ten plain rounds' summed Serial().Msgs, recorded at
// the same time (21 081 before), which a change may not exceed at all.
const (
	ratchetWave   = 391_200 * time.Microsecond
	ratchetStore  = 150_000 * time.Microsecond
	ratchetMargin = 0.02
	ratchetMsgs   = 13_401
)

// TestPublishMakespanRatchet: on the docs/indexing.md fixture — thirteen
// 32-page IndexBatch rounds on the default cluster, seed 1 — the median
// plain (non-compacting) round's Wave() and StoreCost stay within
// ratchetMargin of the recorded values, and the plain rounds together
// send no more messages than ratchetMsgs. A page is searchable once its
// round's Wave() has passed, and the store wave is the publisher's
// Provide walks, so a write path that walks, then waves, fails here; a
// discovery walk or wave that creeps back into a hinted fetch fails the
// message count. All are simulated, a pure function of the seed. The
// median of the ten plain rounds is the upper middle one.
func TestPublishMakespanRatchet(t *testing.T) {
	_, receipts := docsFixture(t)
	var waves, stores []time.Duration
	msgs := 0
	for _, rr := range receipts {
		if rr.Compactions == 0 {
			waves = append(waves, rr.Wave().Latency)
			stores = append(stores, rr.StoreCost.Latency)
			msgs += rr.Serial().Msgs
		}
	}
	if len(waves) != 10 {
		t.Fatalf("%d plain rounds, want ten: the fixture changed", len(waves))
	}
	t.Logf("plain rounds sent %d msgs, recorded %d", msgs, ratchetMsgs)
	if msgs > ratchetMsgs {
		t.Errorf("plain rounds sent %d msgs, above the recorded %d", msgs, ratchetMsgs)
	}
	for _, m := range []struct {
		name     string
		got      []time.Duration
		recorded time.Duration
	}{{"Wave()", waves, ratchetWave}, {"StoreCost", stores, ratchetStore}} {
		slices.Sort(m.got)
		median := m.got[len(m.got)/2]
		bound := time.Duration(float64(m.recorded) * (1 + ratchetMargin))
		t.Logf("median plain round %s %v, recorded %v, bound %v", m.name, median, m.recorded, bound)
		if median > bound {
			t.Errorf("median plain round %s %v, above its recorded %v by more than %.0f %%", m.name, median, m.recorded, 100*ratchetMargin)
		}
	}
}

// indexBatchNamingProvider is IndexBatch with a hand-built transaction:
// the content is stored and provided on a cluster peer as usual, but the
// transaction names provider as the peer to fetch it from.
func indexBatchNamingProvider(c *Cluster, owner *chain.Account, pages []BatchPage, provider string) (RoundReceipt, error) {
	peer := c.RandomPeer()
	var params contracts.PublishBatchParams
	var storeCost netsim.Cost
	for _, p := range pages {
		cid, cost, err := peer.Add([]byte(p.Text))
		if err != nil {
			return RoundReceipt{}, err
		}
		storeCost = storeCost.Par(cost)
		params.Pages = append(params.Pages, contracts.PublishParams{URL: p.URL, CID: cid.String(), Links: p.Links, Provider: provider})
	}
	tx := c.SubmitCall(owner, contracts.MethodPublishBatch, params, 0)
	c.Seal()
	if r := c.Chain.Receipt(tx.Hash()); r == nil || !r.OK {
		return RoundReceipt{}, fmt.Errorf("publish-batch receipt %+v", r)
	}
	rr := c.ProcessRoundReceipt()
	rr.StoreCost = storeCost
	return rr, nil
}

// storeRPC picks a DHT STORE apart by reflection (the wire types are the
// dht package's own): key, value and sequence of the request.
func storeRPC(req any) (key dht.Key, value []byte, seq uint64, ok bool) {
	v := reflect.ValueOf(req)
	if v.Kind() != reflect.Struct || v.Type().String() != "dht.storeReq" {
		return key, nil, 0, false
	}
	return v.FieldByName("Key").Interface().(dht.Key), v.FieldByName("Value").Bytes(), v.FieldByName("Seq").Uint(), true
}

// TestWriteSegmentsLandBeforePointers: folding a pointer's read beside
// the segment puts moves no RPC. Observed from the handlers' side, no
// pointer STORE is issued before every segment it lists was accepted by
// at least one replica — and in a round whose segment STORE every
// replica refuses there is no contribution, so no pointer write at all.
// Segments and pointers are the only keys a round stores under.
func TestWriteSegmentsLandBeforePointers(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCluster(cfg)
	owner := c.NewAccount("writer", 10_000_000)
	c.Seal()

	mutable := make(map[dht.Key]string)
	for s := 0; s < cfg.NumShards; s++ {
		mutable[pointerKey(s)] = fmt.Sprintf("pointer %d", s)
	}
	accepted := make(map[dht.Key]int) // segment key → replicas that took it
	var pointerStores, segmentStores int
	refuseSegments := false
	var failures []string
	peers := append([]*store.Peer(nil), c.Peers...)
	for _, b := range c.Bees {
		peers = append(peers, b.Peer)
	}
	for _, p := range peers {
		p := p
		c.Net.Register(p.Addr(), func(from netsim.NodeID, req any) (any, error) {
			key, value, _, isStore := storeRPC(req)
			if !isStore {
				return p.HandleRPC(from, req)
			}
			name, isMutable := mutable[key]
			switch {
			case isMutable:
				pointerStores++
				ptr, err := decodeShardPointer(value)
				if err != nil {
					failures = append(failures, fmt.Sprintf("%s: %v", name, err))
				}
				for _, dg := range ptr.Digests {
					if accepted[dht.KeyOfString(index.SegmentKey(dg))] == 0 {
						failures = append(failures, fmt.Sprintf("%s v%d lists segment %.8s before any replica accepted it", name, ptr.Version, dg))
					}
				}
			default:
				segmentStores++
				if key != dht.KeyOfString(index.SegmentKey(index.DigestOf(value))) {
					failures = append(failures, fmt.Sprintf("STORE under %s is neither a pointer nor a segment", key.Short()))
				}
				if refuseSegments {
					// The replica already holds something newer under this key.
					p.DHT().StoreLocal(key, []byte("newer"), 9)
				}
			}
			resp, err := p.HandleRPC(from, req)
			if err == nil && !isMutable && reflect.ValueOf(resp).FieldByName("OK").Bool() {
				accepted[key]++
			}
			return resp, err
		})
	}

	batches := corpusBatches(cfg.Seed, 6, 8)
	for round, pages := range batches[:5] { // the fourth round compacts
		rr, err := c.IndexBatch(owner, pages)
		if err != nil || len(rr.Errors) > 0 {
			t.Fatalf("round %d: err=%v round errors=%v", round, err, rr.Errors)
		}
	}
	if len(failures) > 0 {
		t.Fatalf("pointer written ahead of its segments, or a third kind of record:\n%v", failures)
	}
	if ws := c.WriteStats(); pointerStores < 5*cfg.NumShards || ws.Compactions != cfg.NumShards || segmentStores == 0 {
		t.Fatalf("fixture: %d pointer STOREs, %d segment STOREs, %d compactions", pointerStores, segmentStores, ws.Compactions)
	}

	refuseSegments = true
	pointerStores, segmentStores = 0, 0
	rr, err := c.IndexBatch(owner, batches[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Errors) != 1 || rr.Errors[0].Stage != "segment-write" {
		t.Fatalf("refused segment: round errors %v, want one at stage segment-write", rr.Errors)
	}
	if segmentStores == 0 || pointerStores != 0 || rr.SegmentWrites != 0 || rr.PointerWrites != 0 {
		t.Fatalf("refused segment: %d segment, %d pointer STOREs on the wire; receipt %+v", segmentStores, pointerStores, rr)
	}
	if len(rr.Passes) != 1 || len(rr.Passes[0].Shards) != 0 || rr.Passes[0].Collect.Msgs == 0 || rr.MaterializeWave != rr.Passes[0].Collect {
		t.Fatalf("refused segment: the pass is the failed segment wave and nothing else, got %+v (wave %+v)", rr.Passes, rr.MaterializeWave)
	}
}
