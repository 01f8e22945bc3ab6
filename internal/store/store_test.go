package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
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

// TestBlockStoreRecencyKeepers: caching a CID already cached refreshes it
// and keeps its bytes, and corrupting a cached block rewrites its bytes
// and its share of CacheBytes but not its recency.
func TestBlockStoreRecencyKeepers(t *testing.T) {
	bs := NewBlockStore(100)
	d1, d2, d3 := bytes.Repeat([]byte{1}, 40), bytes.Repeat([]byte{2}, 40), bytes.Repeat([]byte{3}, 40)
	c1, c2, c3 := CIDOf(d1), CIDOf(d2), CIDOf(d3)
	bs.PutCached(c1, d1)
	bs.PutCached(c2, d2)
	bs.PutCached(c1, []byte("other bytes")) // c1 is now the most recent
	bs.Corrupt(c2, []byte("short"))         // c2 stays the least recent
	if got, _ := bs.Get(c1); !bytes.Equal(got, d1) {
		t.Fatalf("re-cached block reads %q, want its first bytes", got)
	}
	if st := bs.StatsSnapshot(); st.CacheBytes != 45 {
		t.Fatalf("CacheBytes = %d after corrupting a 40-byte block to 5, want 45", st.CacheBytes)
	}
	bs.PutCached(c3, d3)
	bs.PutCached(CIDOf(d3[:20]), d3[:20]) // over budget: evicts c2 alone
	if bs.Has(c2) || !bs.Has(c1) || !bs.Has(c3) {
		t.Fatalf("after eviction c1 %v c2 %v c3 %v, want c2 alone gone", bs.Has(c1), bs.Has(c2), bs.Has(c3))
	}
}

// buildPeerSwarm creates n DWeb peers on a bootstrapped DHT.
func buildPeerSwarm(t testing.TB, n int, cfg PeerConfig) (*netsim.Network, []*Peer) {
	t.Helper()
	return buildPeerSwarmOn(t, netsim.New(netsim.DefaultConfig()), n, cfg)
}

func buildPeerSwarmOn(t testing.TB, net *netsim.Network, n int, cfg PeerConfig) (*netsim.Network, []*Peer) {
	t.Helper()
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
// issued by Fetch or returned by FetchHinted and passed to Announce, it
// costs the K-wide ADD_PROVIDER wave and no second walk.
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

	// Returned: same swarm, same fetch, the announce billed by Announce.
	peers, roots = boot()
	fetcher := peers[9]
	var anns []Announcement
	for i, root := range roots {
		_, cost, _, ann, err := fetcher.FetchHinted(root, "")
		if err != nil || ann == nil {
			t.Fatalf("root %d: announcement %v, err=%v", i, ann, err)
		}
		anns = append(anns, *ann)
		if i > 0 {
			continue
		}
		if inline.Msgs != cost.Msgs+k {
			t.Fatalf("inline fetch %d msgs, returned %d: the announce must be exactly one %d-wide wave", inline.Msgs, cost.Msgs, k)
		}
		// Either way the fetch's latency is time to content: the announce
		// is nobody's wait.
		if inline.Latency != cost.Latency {
			t.Fatalf("inline fetch took %v, returned %v: the announce sat on the fetch's path", inline.Latency, cost.Latency)
		}
	}
	if wave := fetcher.Announce(anns); wave.Msgs != len(roots)*k {
		t.Fatalf("%d announces cost %d msgs, want %d waves of %d and no walk", len(roots), wave.Msgs, len(roots), k)
	}
	for i, root := range roots {
		found, _, err := peers[20].DHT().FindProviders(root.Key(), 0)
		if err != nil {
			t.Fatal(err)
		}
		listed := false
		for _, p := range found.All {
			listed = listed || p.Addr == fetcher.Addr()
		}
		if !listed {
			t.Fatalf("root %d: fetcher not among providers %v", i, found.All)
		}
	}
}

// call is one request a recordCalls hook saw: its type, as %T prints
// it, and its target.
type call struct {
	kind string
	to   netsim.NodeID
}

// recordCalls wraps every peer's handler and logs, in order, the requests
// one caller sends. A down node never sees a request, so its requests are
// not in the log.
func recordCalls(net *netsim.Network, peers []*Peer, from netsim.NodeID) *[]call {
	var calls []call
	for _, p := range peers {
		p := p
		net.Register(p.Addr(), func(caller netsim.NodeID, req any) (any, error) {
			if caller == from {
				calls = append(calls, call{kind: fmt.Sprintf("%T", req), to: p.Addr()})
			}
			return p.HandleRPC(caller, req)
		})
	}
	return &calls
}

// kinds counts the calls of each type.
func kinds(calls []call) map[string]int {
	out := make(map[string]int)
	for _, c := range calls {
		out[c.kind]++
	}
	return out
}

// targets counts the calls of one type per target.
func targets(calls []call, kind string) map[netsim.NodeID]int {
	out := make(map[netsim.NodeID]int)
	for _, c := range calls {
		if c.kind == kind {
			out[c.to]++
		}
	}
	return out
}

// TestFetchStartsAtFirstProviderAnswer: retrieval does not wait for the
// discovery walk to converge, and a sole candidate is not pinged — there
// is nothing to choose between. The walk still runs to the end (its
// messages are all billed, the announce reuses it), but the fetch's
// latency is first answer → block transfer.
func TestFetchStartsAtFirstProviderAnswer(t *testing.T) {
	doc := bytes.Repeat([]byte("first answer "), 30) // one block
	boot := func() (*netsim.Network, []*Peer, CID) {
		net, peers := buildPeerSwarm(t, 24, PeerConfig{})
		root, _, err := peers[3].Add(doc)
		if err != nil {
			t.Fatal(err)
		}
		return net, peers, root
	}
	// What discovery alone costs on this swarm: same seed, same walk.
	_, peers, root := boot()
	found, walk, err := peers[9].DHT().FindProviders(root.Key(), maxProviders)
	if err != nil || len(found.First) != 1 || found.FirstCost.Latency >= walk.Latency {
		t.Fatalf("fixture: first answer %v after %v of %v, err=%v", found.First, found.FirstCost.Latency, walk.Latency, err)
	}

	net, peers, root := boot()
	fetcher := peers[9]
	calls := recordCalls(net, peers, fetcher.Addr())
	got, cost, _, ann, err := fetcher.FetchHinted(root, "")
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("fetch: %d bytes, err=%v", len(got), err)
	}
	if pings := targets(*calls, "dht.pingReq"); len(pings) != 0 {
		t.Fatalf("sole candidate pinged: %v", pings)
	}
	if cost.Msgs != walk.Msgs+1 {
		t.Fatalf("fetch cost %d msgs, want the walk's %d and one block request", cost.Msgs, walk.Msgs)
	}
	if cost.Latency <= found.FirstCost.Latency || cost.Latency >= walk.Latency {
		t.Fatalf("content after %v: first answer at %v, walk converged at %v — a one-block transfer must fit between",
			cost.Latency, found.FirstCost.Latency, walk.Latency)
	}
	// The announce cannot leave before the walk has converged.
	if wave := fetcher.Announce([]Announcement{*ann}); cost.Latency+wave.Latency <= walk.Latency {
		t.Fatalf("content at %v, announce done %v later, yet the walk converged at %v", cost.Latency, wave.Latency, walk.Latency)
	}
}

// TestFetchPicksNearestOfSeveral: with more than one candidate the fetch
// still pings them all and pulls from the lowest round-trip time. Jitter
// is off, so a link's RTT is the same on every ping.
func TestFetchPicksNearestOfSeveral(t *testing.T) {
	ncfg := netsim.DefaultConfig()
	ncfg.JitterFrac = 0
	net, peers := buildPeerSwarmOn(t, netsim.New(ncfg), 24, PeerConfig{})
	doc := bytes.Repeat([]byte("several candidates "), 30)
	var root CID
	providers := peers[1:4]
	for _, p := range providers {
		r, _, err := p.Add(doc)
		if err != nil {
			t.Fatal(err)
		}
		root = r
	}
	fetcher := peers[9]
	nearest := providers[0]
	var best netsim.Cost
	for i, p := range providers {
		rtt, err := fetcher.DHT().Ping(p.DHT().Self())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || rtt.Latency < best.Latency {
			nearest, best = p, rtt
		}
	}

	calls := recordCalls(net, peers, fetcher.Addr())
	if _, _, err := fetcher.Fetch(root); err != nil {
		t.Fatal(err)
	}
	pings := targets(*calls, "dht.pingReq")
	for _, p := range providers {
		if pings[p.Addr()] != 1 {
			t.Fatalf("candidate %s pinged %d times, want once: %v", p.Addr(), pings[p.Addr()], pings)
		}
		if want := map[bool]int64{true: 1, false: 0}[p == nearest]; p.BlocksServed() != want {
			t.Fatalf("%s served %d blocks; the nearest candidate is %s", p.Addr(), p.BlocksServed(), nearest.Addr())
		}
	}
}

// TestFetchDeadSoleCandidate: the one provider on record is gone. The
// fetch fails the way it did when a ping found that out — no providers,
// "unreachable" — now on the block request itself.
func TestFetchDeadSoleCandidate(t *testing.T) {
	boot := func() ([]*Peer, CID) {
		net, peers := buildPeerSwarm(t, 24, PeerConfig{})
		root, _, err := peers[3].Add([]byte("gone with its only provider"))
		if err != nil {
			t.Fatal(err)
		}
		net.SetDown(peers[3].Addr(), true)
		return peers, root
	}
	// What discovery alone costs on this swarm: same seed, same walk.
	peers, root := boot()
	found, walk, err := peers[9].DHT().FindProviders(root.Key(), maxProviders)
	if err != nil || len(found.All) != 1 {
		t.Fatalf("fixture: providers %v, err=%v", found.All, err)
	}

	peers, root = boot()
	_, cost, err := peers[9].Fetch(root)
	if !errors.Is(err, ErrNoProviders) || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v, want ErrNoProviders … unreachable", err)
	}
	// A down node never sees a request, so count on the caller's side:
	// the walk, then one block request — no ping before it.
	if cost.Msgs != walk.Msgs+1 {
		t.Fatalf("failed fetch cost %d msgs, want the walk's %d and one block request", cost.Msgs, walk.Msgs)
	}
	if found, _, err := peers[20].DHT().FindProviders(root.Key(), 0); err != nil || len(found.All) != 1 {
		t.Fatalf("a failed fetch announced itself: providers %v err=%v", found.All, err)
	}
}

// TestFetchFallsBackToLaterProviders: when nobody the first answer named
// can serve, the providers the rest of the walk turned up are tried —
// known only once the walk is over, so that is when the retry starts.
// The fixture gets two record sets apart by announcing the second
// provider while the three nodes closest to the key are down: it lands on
// three farther nodes instead, which never heard of the first provider
// and are whom this fetcher happens to ask first. Then the second
// provider goes away. (A walked announce also lands on the contacts its
// walk asked before closer ones displaced them, so which document puts
// the fetcher where it holds neither record set follows the swarm's
// walks: this text does.)
func TestFetchFallsBackToLaterProviders(t *testing.T) {
	doc := bytes.Repeat([]byte("later provider "), 30)
	boot := func() ([]*Peer, CID) {
		net, peers := buildPeerSwarm(t, 24, PeerConfig{})
		first, second := peers[3], peers[5]
		root, _, err := first.Add(doc)
		if err != nil {
			t.Fatal(err)
		}
		byDistance := append([]*Peer(nil), peers...)
		sort.Slice(byDistance, func(i, j int) bool {
			return dht.DistanceLess(root.Key(), byDistance[i].DHT().Self().ID, byDistance[j].DHT().Self().ID)
		})
		var down []*Peer
		for _, p := range byDistance {
			if p != first && p != second && p != peers[9] && len(down) < 3 {
				down = append(down, p)
			}
		}
		for _, p := range down {
			net.SetDown(p.Addr(), true)
		}
		if _, _, err := second.Add(doc); err != nil {
			t.Fatal(err)
		}
		for _, p := range down {
			net.SetDown(p.Addr(), false)
		}
		net.SetDown(second.Addr(), true)
		return peers, root
	}
	peers, root := boot()
	found, walk, err := peers[9].DHT().FindProviders(root.Key(), maxProviders)
	if err != nil || len(found.First) != 1 || found.First[0].Addr != peers[5].Addr() || len(found.All) != 2 {
		t.Fatalf("fixture: first answer %v, walk %v, err=%v", found.First, found.All, err)
	}

	peers, root = boot()
	got, cost, err := peers[9].Fetch(root)
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("fetch: %d bytes, err=%v", len(got), err)
	}
	if peers[3].BlocksServed() != 1 {
		t.Fatalf("the later provider served %d blocks", peers[3].BlocksServed())
	}
	if cost.Latency <= walk.Latency {
		t.Fatalf("content after %v, but its provider was only known when the walk converged at %v", cost.Latency, walk.Latency)
	}
}

// TestFetchHintedSameTraffic: a fetch told who holds a freshly published
// root sends its block requests and nothing else — no GET_PROVIDERS, no
// walk — so its content arrives after the block transfer alone. Its
// announce, billed by Announce, is the walked ADD_PROVIDER a Provide
// sends from the state the fetch leaves, and it starts once the content
// is in. Against an unhinted fetch of the same root — its discovery walk,
// one block request, one K-wide announce wave on the walk — the hinted
// fetch ends with the same provider records on the same K holders, its
// announce reaches every node the unhinted one landed on, and the two
// together send fewer messages: one walk where the unhinted fetch pays a
// walk and a wave.
func TestFetchHintedSameTraffic(t *testing.T) {
	doc := bytes.Repeat([]byte("named on chain "), 30) // one block
	k := dht.DefaultConfig().K
	boot := func() (*netsim.Network, []*Peer, CID) {
		net, peers := buildPeerSwarm(t, 24, PeerConfig{})
		root, _, err := peers[3].Add(doc)
		if err != nil {
			t.Fatal(err)
		}
		return net, peers, root
	}
	// What the discovery walk alone costs on this swarm: same seed, same
	// walk.
	_, peers, root := boot()
	found, walk, err := peers[9].DHT().FindProviders(root.Key(), maxProviders)
	if err != nil || len(found.First) != 1 || found.First[0].Addr != peers[3].Addr() {
		t.Fatalf("fixture: first answer %v, err=%v", found.First, err)
	}
	// What the block transfer alone costs.
	_, peers, root = boot()
	_, transfer, err := peers[9].assemble(root, []netsim.NodeID{peers[3].Addr()}, false)
	if err != nil {
		t.Fatal(err)
	}
	// What a Provide costs from the state a hinted fetch leaves.
	_, peers, root = boot()
	if _, _, _, _, err := peers[9].FetchHinted(root, peers[3].Addr()); err != nil {
		t.Fatal(err)
	}
	_, provide, err := peers[9].DHT().Provide(root.Key())
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		cost, announce netsim.Cost
		fetched, waved map[string]int
		announcedOn    map[netsim.NodeID]int
		holders        []dht.Contact
		providers      []dht.Contact
	}
	fetch := func(hint func([]*Peer) netsim.NodeID) outcome {
		net, peers, root := boot()
		fetcher := peers[9]
		calls := recordCalls(net, peers, fetcher.Addr())
		got, cost, missed, ann, err := fetcher.FetchHinted(root, hint(peers))
		if err != nil || missed || ann == nil || !bytes.Equal(got, doc) {
			t.Fatalf("fetch: %d bytes, missed=%v, announcement %v, err=%v", len(got), missed, ann, err)
		}
		out := outcome{cost: cost, fetched: kinds(*calls)}
		*calls = nil
		out.announce = fetcher.Announce([]Announcement{*ann})
		out.waved, out.announcedOn = kinds(*calls), targets(*calls, "dht.addProviderReq")
		out.holders = fetcher.roots[root]
		after, _, err := peers[20].DHT().FindProviders(root.Key(), 0)
		if err != nil {
			t.Fatal(err)
		}
		out.providers = after.All
		return out
	}
	plain := fetch(func([]*Peer) netsim.NodeID { return "" })
	hinted := fetch(func(peers []*Peer) netsim.NodeID { return peers[3].Addr() })

	if plain.cost.Msgs != walk.Msgs+1 || fmt.Sprint(plain.fetched) != fmt.Sprint(map[string]int{"dht.getProvidersReq": walk.Msgs, "store.blockReq": 1}) {
		t.Fatalf("unhinted fetch %d msgs %v: want its walk's %d and one block request", plain.cost.Msgs, plain.fetched, walk.Msgs)
	}
	if hinted.cost.Msgs != 1 || fmt.Sprint(hinted.fetched) != fmt.Sprint(map[string]int{"store.blockReq": 1}) {
		t.Fatalf("hinted fetch %d msgs %v: want its one block request and nothing else", hinted.cost.Msgs, hinted.fetched)
	}
	if hinted.cost != transfer || hinted.cost.Latency >= plain.cost.Latency {
		t.Fatalf("hinted content for %+v, want the block transfer alone (%+v), sooner than the unhinted %v", hinted.cost, transfer, plain.cost.Latency)
	}
	if plain.announce.Msgs != k || fmt.Sprint(plain.waved) != fmt.Sprint(map[string]int{"dht.addProviderReq": k}) {
		t.Fatalf("unhinted announce %d msgs %v: want one %d-wide ADD_PROVIDER wave", plain.announce.Msgs, plain.waved, k)
	}
	if hinted.announce != provide || fmt.Sprint(hinted.waved) != fmt.Sprint(map[string]int{"dht.addProviderReq": provide.Msgs}) {
		t.Fatalf("hinted announce %+v %v: want the walked ADD_PROVIDER of a Provide, %+v", hinted.announce, hinted.waved, provide)
	}
	for addr := range plain.announcedOn {
		if hinted.announcedOn[addr] == 0 {
			t.Fatalf("the unhinted announce landed on %s, the hinted one did not reach it", addr)
		}
	}
	if fmt.Sprint(hinted.holders) != fmt.Sprint(plain.holders) || len(plain.holders) != k {
		t.Fatalf("records held on %v after a hinted fetch, on %v after an unhinted one", hinted.holders, plain.holders)
	}
	if fmt.Sprint(hinted.providers) != fmt.Sprint(plain.providers) || len(plain.providers) != 2 {
		t.Fatalf("providers after a hinted fetch %v, after an unhinted one %v", hinted.providers, plain.providers)
	}
	hintedAll, plainAll := hinted.cost.Msgs+hinted.announce.Msgs, plain.cost.Msgs+plain.announce.Msgs
	if hintedAll >= plainAll {
		t.Fatalf("hinted fetch and announce %d msgs, unhinted %d: the announce walk must replace the discovery walk and the wave", hintedAll, plainAll)
	}
	t.Logf("fetch and announce: hinted %d msgs, done at %v; unhinted %d msgs, done at %v",
		hintedAll, hinted.cost.Latency+hinted.announce.Latency, plainAll, plain.cost.Latency+plain.announce.Latency)
}

// TestFetchHintedDeadHint: the named provider is down, a cache replica
// is on record. The fetch asks the hint once, then fetches as an unhinted
// fetch does, after the failed attempt: the discovery walk, and one block
// request to the sole provider other than the hint, the replica. It
// reports the miss.
func TestFetchHintedDeadHint(t *testing.T) {
	doc := bytes.Repeat([]byte("publisher gone "), 30) // one block
	boot := func() ([]*Peer, CID) {
		net, peers := buildPeerSwarm(t, 24, PeerConfig{})
		root, _, err := peers[3].Add(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := peers[5].Fetch(root); err != nil {
			t.Fatal(err)
		}
		net.SetDown(peers[3].Addr(), true)
		return peers, root
	}
	// What the hint and the walk cost apart: same seed, same calls.
	peers, root := boot()
	hint := dht.Contact{ID: dht.KeyOfString(string(peers[3].Addr())), Addr: peers[3].Addr()}
	_, hinted, err := peers[9].fetchFromNearest([]dht.Contact{hint}, root)
	if err == nil || hinted.Msgs != 1 {
		t.Fatalf("fixture: the dead hint answered for %+v, err=%v", hinted, err)
	}
	found, walk, err := peers[9].DHT().FindProviders(root.Key(), maxProviders)
	if err != nil || len(found.All) != 2 {
		t.Fatalf("fixture: providers %v, err=%v", found.All, err)
	}
	known := walk.Latency // when the walk names the replica
	if len(without(found.First, []dht.Contact{hint})) > 0 {
		known = found.FirstCost.Latency
	}

	peers, root = boot()
	served := peers[5].BlocksServed()
	fetcher := peers[9]
	got, cost, missed, _, err := fetcher.FetchHinted(root, peers[3].Addr())
	if err != nil || !bytes.Equal(got, doc) || !missed {
		t.Fatalf("fetch: %d bytes, missed=%v, err=%v", len(got), missed, err)
	}
	if peers[5].BlocksServed() != served+1 {
		t.Fatalf("the cache replica served %d blocks", peers[5].BlocksServed()-served)
	}
	// A down node never sees a request, so count on the caller's side: the
	// hint once, the walk, one block request to the sole other provider
	// (no ping).
	if cost.Msgs != hinted.Msgs+walk.Msgs+1 {
		t.Fatalf("fetch cost %d msgs, want the hint once, the walk's %d and the replica once", cost.Msgs, walk.Msgs)
	}
	if cost.Latency <= hinted.Latency+known {
		t.Fatalf("content after %v, but the hint failed at %v and the walk named the replica %v later", cost.Latency, hinted.Latency, known)
	}
}

// TestFetchHintedTamperedHint: the named provider serves forged bytes.
// The hash check rejects them, and the fallback's discovery finds the
// other provider, which serves; the hint is not asked again. When the
// other copy is forged too, the fetch fails as every tampered fetch does.
func TestFetchHintedTamperedHint(t *testing.T) {
	doc := []byte("the named provider lies")
	for _, forgeReplica := range []bool{false, true} {
		_, peers := buildPeerSwarm(t, 24, PeerConfig{})
		root, _, err := peers[3].Add(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := peers[5].Fetch(root); err != nil {
			t.Fatal(err)
		}
		peers[3].Blocks().Corrupt(root, EncodeLeaf([]byte("forged")))
		if forgeReplica {
			peers[5].Blocks().Corrupt(root, EncodeLeaf([]byte("forged")))
		}
		fetcher := peers[9]
		asked := peers[3].BlocksServed()
		got, _, missed, ann, err := fetcher.FetchHinted(root, peers[3].Addr())
		if peers[3].BlocksServed() != asked+1 {
			t.Fatalf("forged replica %v: the hint served %d blocks, want one: the fallback must not ask it again", forgeReplica, peers[3].BlocksServed()-asked)
		}
		if !missed || (ann == nil) != (err != nil) {
			t.Fatalf("forged replica %v: missed=%v, announcement %v, err=%v", forgeReplica, missed, ann, err)
		}
		if !missed {
			t.Fatalf("forged replica %v: a tampered hint is a miss", forgeReplica)
		}
		if forgeReplica {
			if !errors.Is(err, ErrAllTampered) || fetcher.TamperDetections() != 2 {
				t.Fatalf("every copy forged: err=%v, %d tampered blocks seen", err, fetcher.TamperDetections())
			}
			continue
		}
		if err != nil || !bytes.Equal(got, doc) || fetcher.TamperDetections() != 1 {
			t.Fatalf("fetch: %q, err=%v, %d tampered blocks seen", got, err, fetcher.TamperDetections())
		}
	}
}

// TestFetchHintedEmptyOrSelfIsFetch: no hint, or a hint naming the
// fetcher itself, is plain retrieval — here with several providers on
// record, so the ping and the nearest-first choice are exercised.
func TestFetchHintedEmptyOrSelfIsFetch(t *testing.T) {
	doc := bytes.Repeat([]byte("no advice "), 30)
	type outcome struct {
		cost   netsim.Cost
		served []int64
		missed bool
	}
	run := func(fetch func(fetcher *Peer, root CID) ([]byte, netsim.Cost, bool, error)) outcome {
		_, peers := buildPeerSwarm(t, 24, PeerConfig{})
		var root CID
		for _, p := range peers[1:4] {
			r, _, err := p.Add(doc)
			if err != nil {
				t.Fatal(err)
			}
			root = r
		}
		got, cost, missed, err := fetch(peers[9], root)
		if err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("fetch: %d bytes, err=%v", len(got), err)
		}
		out := outcome{cost: cost, missed: missed}
		for _, p := range peers[1:4] {
			out.served = append(out.served, p.BlocksServed())
		}
		return out
	}
	plain := run(func(f *Peer, root CID) ([]byte, netsim.Cost, bool, error) {
		data, cost, err := f.Fetch(root)
		return data, cost, false, err
	})
	// A hinted fetch announces what Fetch announces, billed as Fetch bills
	// it: traffic only.
	hinted := func(hint func(f *Peer) netsim.NodeID) func(*Peer, CID) ([]byte, netsim.Cost, bool, error) {
		return func(f *Peer, root CID) ([]byte, netsim.Cost, bool, error) {
			data, cost, missed, ann, err := f.FetchHinted(root, hint(f))
			if ann != nil {
				wave := f.Announce([]Announcement{*ann})
				cost = cost.Par(netsim.Cost{Bytes: wave.Bytes, Msgs: wave.Msgs})
			}
			return data, cost, missed, err
		}
	}
	empty := run(hinted(func(*Peer) netsim.NodeID { return "" }))
	self := run(hinted(func(f *Peer) netsim.NodeID { return f.Addr() }))
	if fmt.Sprint(empty) != fmt.Sprint(plain) || fmt.Sprint(self) != fmt.Sprint(plain) {
		t.Fatalf("empty hint %+v, self hint %+v, plain fetch %+v", empty, self, plain)
	}
}
