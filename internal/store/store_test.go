package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dht"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

func TestCIDVerify(t *testing.T) {
	data := []byte("content")
	cid := CIDOf(data)
	if !cid.Verify(data) {
		t.Fatal("Verify should accept original bytes")
	}
	if cid.Verify([]byte("tampered")) {
		t.Fatal("Verify should reject modified bytes")
	}
}

func TestCIDKeyDeterministic(t *testing.T) {
	a := CIDOf([]byte("x")).Key()
	b := CIDOf([]byte("x")).Key()
	if a != b {
		t.Fatal("Key not deterministic")
	}
}

func TestChunkSmallDocumentSingleLeaf(t *testing.T) {
	data := []byte("short doc")
	root, blocks := ChunkDocument(data, 4096)
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(blocks))
	}
	leaf, children, _, err := DecodeBlock(blocks[root])
	if err != nil || children != nil {
		t.Fatalf("expected leaf, got children=%v err=%v", children, err)
	}
	if !bytes.Equal(leaf, data) {
		t.Fatal("leaf payload mismatch")
	}
}

func TestChunkLargeDocumentRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	data := make([]byte, 10_000)
	rng.Bytes(data)
	root, blocks := ChunkDocument(data, 1024)
	if len(blocks) < 10 {
		t.Fatalf("blocks = %d, want >= 10", len(blocks))
	}
	_, children, totalLen, err := DecodeBlock(blocks[root])
	if err != nil {
		t.Fatal(err)
	}
	if children == nil {
		t.Fatal("root should be a manifest")
	}
	if totalLen != len(data) {
		t.Fatalf("manifest totalLen = %d, want %d", totalLen, len(data))
	}
	var assembled []byte
	for _, c := range children {
		leaf, _, _, err := DecodeBlock(blocks[c])
		if err != nil {
			t.Fatal(err)
		}
		assembled = append(assembled, leaf...)
	}
	if !bytes.Equal(assembled, data) {
		t.Fatal("assembled document differs from original")
	}
}

func TestChunkRoundTripProperty(t *testing.T) {
	f := func(data []byte, szRaw uint8) bool {
		chunkSize := int(szRaw%64) + 16
		root, blocks := ChunkDocument(data, chunkSize)
		leaf, children, _, err := DecodeBlock(blocks[root])
		if err != nil {
			return false
		}
		if children == nil {
			return bytes.Equal(leaf, data)
		}
		var out []byte
		for _, c := range children {
			l, _, _, err := DecodeBlock(blocks[c])
			if err != nil {
				return false
			}
			out = append(out, l...)
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBlockErrors(t *testing.T) {
	if _, _, _, err := DecodeBlock(nil); err == nil {
		t.Fatal("empty block should error")
	}
	if _, _, _, err := DecodeBlock([]byte{0x77, 1, 2}); err == nil {
		t.Fatal("unknown prefix should error")
	}
	if _, _, _, err := DecodeBlock([]byte{manifestPrefix, 0x05}); err == nil {
		t.Fatal("truncated manifest should error")
	}
}

func TestBlockStorePinGet(t *testing.T) {
	bs := NewBlockStore(1024)
	cid := bs.Pin([]byte("hello"))
	got, ok := bs.Get(cid)
	if !ok || string(got) != "hello" {
		t.Fatalf("Get = %q ok=%v", got, ok)
	}
	if !bs.Has(cid) {
		t.Fatal("Has should be true")
	}
}

func TestBlockStoreUnpin(t *testing.T) {
	bs := NewBlockStore(0)
	cid := bs.Pin([]byte("x"))
	if !bs.Unpin(cid) {
		t.Fatal("Unpin should succeed")
	}
	if bs.Unpin(cid) {
		t.Fatal("double Unpin should fail")
	}
	if _, ok := bs.Get(cid); ok {
		t.Fatal("unpinned block should be gone")
	}
}

func TestBlockStoreLRUEviction(t *testing.T) {
	bs := NewBlockStore(100)
	mk := func(tag byte) (CID, []byte) {
		data := bytes.Repeat([]byte{tag}, 40)
		return CIDOf(data), data
	}
	c1, d1 := mk(1)
	c2, d2 := mk(2)
	c3, d3 := mk(3)
	bs.PutCached(c1, d1)
	bs.PutCached(c2, d2)
	// Touch c1 so c2 becomes LRU.
	bs.Get(c1)
	bs.PutCached(c3, d3) // needs eviction: c2 leaves
	if bs.Has(c2) {
		t.Fatal("c2 should have been evicted")
	}
	if !bs.Has(c1) || !bs.Has(c3) {
		t.Fatal("c1 and c3 should remain")
	}
}

func TestBlockStoreCacheCapacityZero(t *testing.T) {
	bs := NewBlockStore(0)
	cid := CIDOf([]byte("d"))
	bs.PutCached(cid, []byte("d"))
	if bs.Has(cid) {
		t.Fatal("cache disabled; block should not be stored")
	}
}

func TestBlockStoreOversizedBlockIgnored(t *testing.T) {
	bs := NewBlockStore(10)
	data := bytes.Repeat([]byte{9}, 100)
	bs.PutCached(CIDOf(data), data)
	if bs.StatsSnapshot().Cached != 0 {
		t.Fatal("oversized block should be ignored")
	}
}

func TestBlockStorePinnedNeverEvicted(t *testing.T) {
	bs := NewBlockStore(50)
	pinned := bs.Pin(bytes.Repeat([]byte{7}, 40))
	for i := byte(0); i < 10; i++ {
		data := bytes.Repeat([]byte{i}, 45)
		bs.PutCached(CIDOf(data), data)
	}
	if !bs.Has(pinned) {
		t.Fatal("pinned block must survive cache churn")
	}
}

func TestBlockStoreCorrupt(t *testing.T) {
	bs := NewBlockStore(1024)
	cid := bs.Pin([]byte("genuine"))
	if !bs.Corrupt(cid, []byte("evil")) {
		t.Fatal("Corrupt should find pinned block")
	}
	got, _ := bs.Get(cid)
	if string(got) != "evil" {
		t.Fatalf("corrupted content = %q", got)
	}
	if cid.Verify(got) {
		t.Fatal("verification should fail on corrupted bytes")
	}
}

// buildPeerSwarm creates n DWeb peers on a bootstrapped DHT.
func buildPeerSwarm(t testing.TB, n int, cfg PeerConfig) (*netsim.Network, []*Peer) {
	t.Helper()
	net := netsim.New(netsim.DefaultConfig())
	peers := make([]*Peer, n)
	dcfg := dht.DefaultConfig()
	for i := 0; i < n; i++ {
		d := dht.NewNode(net, netsim.NodeID(fmt.Sprintf("peer-%03d", i)), dcfg)
		peers[i] = NewPeer(net, d, cfg)
	}
	seed := peers[0].DHT().Self()
	for i := 1; i < n; i++ {
		peers[i].DHT().Bootstrap([]dht.Contact{seed})
	}
	for _, p := range peers {
		p.DHT().Bootstrap([]dht.Contact{seed})
	}
	return net, peers
}

func TestAddFetchRoundTrip(t *testing.T) {
	_, peers := buildPeerSwarm(t, 16, PeerConfig{})
	doc := bytes.Repeat([]byte("the decentralized web "), 500) // ~11KB, multi-chunk
	root, _, err := peers[2].Add(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, cost, err := peers[13].Fetch(root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatal("fetched document differs")
	}
	if cost.Latency <= 0 {
		t.Fatal("fetch should cost simulated time")
	}
}

func TestFetchLocalIsFree(t *testing.T) {
	_, peers := buildPeerSwarm(t, 8, PeerConfig{})
	doc := []byte("tiny")
	root, _, err := peers[1].Add(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, cost, err := peers[1].Fetch(root)
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("local fetch failed: %v", err)
	}
	if cost.Latency != 0 {
		t.Fatalf("local fetch cost = %v, want 0", cost.Latency)
	}
}

func TestFetchMissingContent(t *testing.T) {
	_, peers := buildPeerSwarm(t, 8, PeerConfig{})
	_, _, err := peers[0].Fetch(CIDOf([]byte("never published")))
	if !errors.Is(err, ErrNoProviders) {
		t.Fatalf("err = %v, want ErrNoProviders", err)
	}
}

func TestCacheServingReplicatesContent(t *testing.T) {
	net, peers := buildPeerSwarm(t, 16, PeerConfig{})
	doc := bytes.Repeat([]byte("cached content "), 100)
	root, _, err := peers[0].Add(doc)
	if err != nil {
		t.Fatal(err)
	}
	// A second peer fetches (and starts serving from cache).
	if _, _, err := peers[5].Fetch(root); err != nil {
		t.Fatal(err)
	}
	// Original publisher goes down; content must still be fetchable.
	net.SetDown(peers[0].Addr(), true)
	got, _, err := peers[9].Fetch(root)
	if err != nil {
		t.Fatalf("fetch after publisher death: %v", err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatal("content mismatch via cache replica")
	}
}

func TestTamperedProviderDetectedAndBypassed(t *testing.T) {
	_, peers := buildPeerSwarm(t, 16, PeerConfig{})
	doc := []byte("authentic content")
	root, _, err := peers[0].Add(doc)
	if err != nil {
		t.Fatal(err)
	}
	// A malicious peer pins garbage under the same CID and announces
	// itself as provider.
	evil := peers[7]
	_, blocks := ChunkDocument(doc, DefaultChunkSize)
	for cid := range blocks {
		evil.Blocks().Pin(EncodeLeaf([]byte("FAKE NEWS")))
		// Force-store garbage under the genuine CID.
		evil.Blocks().pinned[cid] = EncodeLeaf([]byte("FAKE NEWS"))
	}
	evil.DHT().Provide(root.Key())

	reader := peers[12]
	got, _, err := reader.Fetch(root)
	if err != nil {
		t.Fatalf("fetch should succeed via honest provider: %v", err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatal("reader accepted tampered content")
	}
}

func TestAllProvidersTampered(t *testing.T) {
	_, peers := buildPeerSwarm(t, 12, PeerConfig{})
	doc := []byte("soon to be censored")
	root, _, err := peers[0].Add(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the only genuine replica in place.
	rootBlockCID := root
	if !peers[0].Blocks().Corrupt(rootBlockCID, EncodeLeaf([]byte("censored"))) {
		t.Fatal("corrupt failed")
	}
	_, _, err = peers[6].Fetch(root)
	if !errors.Is(err, ErrAllTampered) {
		t.Fatalf("err = %v, want ErrAllTampered", err)
	}
	if peers[6].TamperDetections() == 0 {
		t.Fatal("tamper detection counter should increment")
	}
}

func TestBlocksServedCounter(t *testing.T) {
	_, peers := buildPeerSwarm(t, 10, PeerConfig{})
	root, _, err := peers[0].Add([]byte("count me"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := peers[4].Fetch(root); err != nil {
		t.Fatal(err)
	}
	if peers[0].BlocksServed() == 0 {
		t.Fatal("publisher should have served blocks")
	}
}

func TestStatsSnapshot(t *testing.T) {
	bs := NewBlockStore(1000)
	cid := bs.Pin([]byte("a"))
	bs.Get(cid)
	bs.Get(CIDOf([]byte("missing")))
	s := bs.StatsSnapshot()
	if s.Hits != 1 || s.Misses != 1 || s.Pinned != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestAddDeterministicPinOrder pins the sorted-CID pin loop in Add: two
// identical swarms publishing the same multi-chunk document must end up
// with the same root, the same announce cost, and the same block-store
// snapshot. Before Add sorted the chunk CIDs, the block store saw
// insertions in map order.
func TestAddDeterministicPinOrder(t *testing.T) {
	run := func() (CID, netsim.Cost, Stats) {
		_, peers := buildPeerSwarm(t, 8, PeerConfig{})
		doc := bytes.Repeat([]byte("deterministic pin order "), 600) // multi-chunk
		root, cost, err := peers[3].Add(doc)
		if err != nil {
			t.Fatal(err)
		}
		return root, cost, peers[3].Blocks().StatsSnapshot()
	}
	r1, c1, s1 := run()
	r2, c2, s2 := run()
	if r1 != r2 || c1 != c2 || s1 != s2 {
		t.Fatalf("Add diverged across identical runs:\n(%s, %+v, %+v)\n(%s, %+v, %+v)", r1.Short(), c1, s1, r2.Short(), c2, s2)
	}
}

// TestFetchAnnouncesOnItsDiscoveryWalk: a fetch's serve-cache announce
// lands on the closest set its provider discovery already walked to —
// inline or queued, it costs the K-wide ADD_PROVIDER wave and no second
// walk. The queue is filled by concurrent fetches (the race job's view
// of Peer.pending) and flushed once.
func TestFetchAnnouncesOnItsDiscoveryWalk(t *testing.T) {
	k := dht.DefaultConfig().K
	docs := make([][]byte, 4)
	for i := range docs {
		docs[i] = bytes.Repeat([]byte(fmt.Sprintf("announce walk %d ", i)), 40)
	}
	boot := func() ([]*Peer, []CID) {
		_, peers := buildPeerSwarm(t, 24, PeerConfig{})
		roots := make([]CID, len(docs))
		for i, doc := range docs {
			root, _, err := peers[i].Add(doc)
			if err != nil {
				t.Fatal(err)
			}
			roots[i] = root
		}
		return peers, roots
	}

	// Inline: the announce rides inside the fetch.
	peers, roots := boot()
	_, inline, err := peers[9].Fetch(roots[0])
	if err != nil {
		t.Fatal(err)
	}

	// Queued: same swarm, same fetch, the announce billed at the flush.
	peers, roots = boot()
	fetcher := peers[9]
	fetcher.SetDeferProvides(true)
	_, deferred, err := fetcher.Fetch(roots[0])
	if err != nil {
		t.Fatal(err)
	}
	if inline.Msgs != deferred.Msgs+k {
		t.Fatalf("inline fetch %d msgs, deferred %d: the announce must be exactly one %d-wide wave", inline.Msgs, deferred.Msgs, k)
	}
	var wg sync.WaitGroup
	for _, root := range roots[1:] {
		wg.Add(1)
		go func(root CID) {
			defer wg.Done()
			if _, _, err := fetcher.Fetch(root); err != nil {
				t.Error(err)
			}
		}(root)
	}
	wg.Wait()
	fetcher.SetDeferProvides(false)
	if flush := fetcher.FlushProvides(); flush.Msgs != len(roots)*k {
		t.Fatalf("flush of %d queued announces cost %d msgs, want %d waves of %d and no walk", len(roots), flush.Msgs, len(roots), k)
	}
	if again := fetcher.FlushProvides(); again.Msgs != 0 {
		t.Fatalf("second flush cost %d msgs", again.Msgs)
	}
	for i, root := range roots {
		provs, _, _, err := peers[20].DHT().FindProviders(root.Key(), 0)
		if err != nil {
			t.Fatal(err)
		}
		listed := false
		for _, p := range provs {
			listed = listed || p.Addr == fetcher.Addr()
		}
		if !listed {
			t.Fatalf("root %d: fetcher not among providers %v", i, provs)
		}
	}
}
