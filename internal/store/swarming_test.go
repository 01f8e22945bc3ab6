package store

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/xrand"
)

// swarmingSwarm builds peers with swarming fetch enabled.
func swarmingSwarm(t *testing.T, n int) []*Peer {
	t.Helper()
	cfg := PeerConfig{Swarming: true}
	_, peers := buildPeerSwarm(t, n, cfg)
	return peers
}

func TestSwarmingFetchRoundTrip(t *testing.T) {
	peers := swarmingSwarm(t, 16)
	rng := xrand.New(3)
	doc := make([]byte, 40_000) // ~10 chunks
	rng.Bytes(doc)
	root, _, err := peers[0].Add(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Two extra replicas so swarming has multiple sources.
	peers[1].Fetch(root)
	peers[2].Fetch(root)

	got, _, err := peers[9].Fetch(root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatal("swarming fetch corrupted the document")
	}
}

func TestSwarmingFasterThanSingleProvider(t *testing.T) {
	rng := xrand.New(4)
	doc := make([]byte, 200_000) // ~49 chunks: transfer-dominated
	rng.Bytes(doc)

	run := func(swarming bool) float64 {
		cfg := PeerConfig{Swarming: swarming}
		_, peers := buildPeerSwarm(t, 16, cfg)
		root, _, err := peers[0].Add(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Prime three replicas (single-provider mode ignores the extras).
		for i := 1; i <= 3; i++ {
			if _, _, err := peers[i].Fetch(root); err != nil {
				t.Fatal(err)
			}
		}
		_, cost, err := peers[10].Fetch(root)
		if err != nil {
			t.Fatal(err)
		}
		return cost.Latency.Seconds()
	}

	single := run(false)
	swarmed := run(true)
	if swarmed >= single {
		t.Fatalf("swarming (%.3fs) should beat single provider (%.3fs) on a large doc", swarmed, single)
	}
}

func TestSwarmingToleratesDeadProvider(t *testing.T) {
	cfg := PeerConfig{Swarming: true}
	net, peers := buildPeerSwarm(t, 16, cfg)
	rng := xrand.New(5)
	doc := make([]byte, 40_000)
	rng.Bytes(doc)
	root, _, err := peers[0].Add(doc)
	if err != nil {
		t.Fatal(err)
	}
	peers[1].Fetch(root)
	peers[2].Fetch(root)
	// One replica dies after announcing.
	net.SetDown(peers[1].Addr(), true)

	got, _, err := peers[9].Fetch(root)
	if err != nil {
		t.Fatalf("fetch with dead provider: %v", err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatal("content mismatch")
	}
}

func TestSwarmingRejectsTamperedChunks(t *testing.T) {
	cfg := PeerConfig{Swarming: true}
	_, peers := buildPeerSwarm(t, 12, cfg)
	rng := xrand.New(6)
	doc := make([]byte, 40_000)
	rng.Bytes(doc)
	root, _, err := peers[0].Add(doc)
	if err != nil {
		t.Fatal(err)
	}
	// A second replica with one corrupted chunk.
	peers[1].Fetch(root)
	_, blocks := ChunkDocument(doc, DefaultChunkSize)
	for cid := range blocks {
		if cid != root {
			peers[1].Blocks().Corrupt(cid, EncodeLeaf([]byte("BAD CHUNK")))
			break
		}
	}
	got, _, err := peers[8].Fetch(root)
	if err != nil {
		t.Fatalf("fetch should fall back to honest chunks: %v", err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatal("tampered chunk accepted")
	}
}

// TestSwarmingAllProvidersTamperedChunk: when every replica serves the
// same child chunk corrupted, the fetch must say "tampered" like the
// single-provider path does, not "unreachable".
func TestSwarmingAllProvidersTamperedChunk(t *testing.T) {
	cfg := PeerConfig{Swarming: true}
	_, peers := buildPeerSwarm(t, 12, cfg)
	rng := xrand.New(6)
	doc := make([]byte, 40_000)
	rng.Bytes(doc)
	root, _, err := peers[0].Add(doc)
	if err != nil {
		t.Fatal(err)
	}
	peers[1].Fetch(root)
	_, blocks := ChunkDocument(doc, DefaultChunkSize)
	for cid := range blocks {
		if cid != root {
			peers[0].Blocks().Corrupt(cid, EncodeLeaf([]byte("BAD CHUNK")))
			peers[1].Blocks().Corrupt(cid, EncodeLeaf([]byte("BAD CHUNK")))
			break
		}
	}
	_, _, err = peers[8].Fetch(root)
	if !errors.Is(err, ErrAllTampered) {
		t.Fatalf("err = %v, want ErrAllTampered", err)
	}
	if peers[8].TamperDetections() == 0 {
		t.Fatal("no tamper detection counted")
	}
}

func TestSwarmingSingleChunkDoc(t *testing.T) {
	peers := swarmingSwarm(t, 10)
	root, _, err := peers[0].Add([]byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	peers[1].Fetch(root)
	got, _, err := peers[5].Fetch(root)
	if err != nil || string(got) != "tiny" {
		t.Fatalf("got %q, err %v", got, err)
	}
}
