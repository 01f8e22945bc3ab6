package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/index"
)

func TestReadSegmentRejectsTamperedBytes(t *testing.T) {
	c := smallCluster(t)
	// Store garbage under a digest key that does not match the bytes.
	d := c.Peers[0].DHT()
	digest := index.DigestOf([]byte("the honest segment"))
	if _, _, err := d.Put(dht.KeyOfString(index.SegmentKey(digest)), []byte("evil bytes"), 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := readSegmentCtx(context.Background(), c.Peers[3].DHT(), digest)
	if err == nil || !strings.Contains(err.Error(), "hash verification") {
		t.Fatalf("err = %v, want hash verification failure", err)
	}
}

func TestReadSegmentAcceptsGenuineBytes(t *testing.T) {
	c := smallCluster(t)
	b := index.NewBuilder(1)
	b.Add(index.DocIDOf("dweb://x"), "genuine segment content")
	data := b.Build().Encode()
	digest := index.DigestOf(data)
	if _, err := writeSegment(c.Peers[0].DHT(), digest, data); err != nil {
		t.Fatal(err)
	}
	seg, _, err := readSegmentCtx(context.Background(), c.Peers[4].DHT(), digest)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Postings(index.Stem("genuine")) == nil {
		t.Fatal("decoded segment missing postings")
	}
}

func TestShardCompactionBoundsSegmentChains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 12
	cfg.NumBees = 3
	cfg.NumShards = 2 // concentrate segments onto few shards
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 100_000)
	c.Seal()

	const docs = 30
	for i := 0; i < docs; i++ {
		if _, err := c.Publish(alice, c.Peers[i%len(c.Peers)], fmt.Sprintf("dweb://c/%02d", i),
			fmt.Sprintf("compaction workload document %02d body", i), nil); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			c.Seal()
			c.RunUntilIdle(4)
		}
	}
	c.Seal()
	c.RunUntilIdle(8)

	// With 30 docs over 2 shards, uncompacted chains would be ~15 long.
	// Tiered compaction (a merge once a level holds 4 runs) must keep
	// every chain well below that.
	reader := c.Peers[1].DHT()
	for shard := 0; shard < cfg.NumShards; shard++ {
		ptr, _, err := readShardPointer(reader, shard)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if len(ptr.Digests) >= 10 {
			t.Fatalf("shard %d chain = %d segments; compaction not working", shard, len(ptr.Digests))
		}
	}
	// And the index still answers.
	fe := NewFrontend(c, c.Peers[2])
	resp, err := fe.Search("compaction workload", 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != docs {
		t.Fatalf("results = %d, want %d", len(resp.Results), docs)
	}
}

func TestStatsRecordTracksCorpus(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 10_000)
	c.Seal()
	for i := 0; i < 4; i++ {
		if _, err := c.Publish(alice, c.Peers[0], fmt.Sprintf("dweb://s/%d", i),
			"five words in this body", nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal()
	c.RunUntilIdle(6)
	st := c.QB.IndexStats()
	if st.Docs != 4 {
		t.Fatalf("stats docs = %d, want 4", st.Docs)
	}
	if st.Tokens == 0 {
		t.Fatal("stats tokens should be positive")
	}
}
