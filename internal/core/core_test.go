package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
)

// TestConfigCensus is the knob ratchet for the two configurations every
// deployment, soak and experiment is built from: each settable field is
// a setting they would have to cover, so a bound moves only in a
// reviewed change to this test.
func TestConfigCensus(t *testing.T) {
	for _, c := range []struct {
		cfg any
		max int
	}{
		{contracts.Config{}, 3},
		{Config{}, 13},
	} {
		typ := reflect.TypeOf(c.cfg)
		settable := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				settable++
			}
		}
		if settable > c.max {
			t.Errorf("%s has %d settable fields, the census allows %d", typ, settable, c.max)
		}
	}
}

func smallCluster(t testing.TB) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumPeers = 10
	cfg.NumBees = 3
	return NewCluster(cfg)
}

// readShardPointer fetches a shard's pointer record by quorum read.
func readShardPointer(d *dht.Node, shard int) (ShardPointer, netsim.Cost, error) {
	ptr, _, cost, err := readShardPointerCtx(context.Background(), d, shard)
	return ptr, cost, err
}

// checkStatsRecount asserts a round invariant: the on-chain collection
// statistics equal a recount that shares nothing with the vote — every
// first-version page of every finalized index task, its tokens counted
// by analyzing the text the test published (firstText: URL → the text of
// its first version).
func checkStatsRecount(t testing.TB, c *Cluster, firstText map[string]string) {
	t.Helper()
	var want contracts.IndexStats
	for _, ev := range c.Chain.Events() {
		if ev.Type != contracts.EventTaskFinalized || ev.Attrs["kind"] != string(contracts.TaskIndex) {
			continue
		}
		task, _ := c.QB.TaskInfo(ev.Attrs["task"])
		for _, e := range task.Pages {
			if e.Seq != 1 {
				continue
			}
			text, ok := firstText[e.URL]
			if !ok {
				t.Fatalf("task %s indexed %s, which the test never published", task.ID, e.URL)
			}
			want.Docs++
			want.Tokens += uint64(len(index.Analyze(text)))
		}
	}
	if got := c.QB.IndexStats(); got != want {
		t.Fatalf("on-chain stats %+v, recount of finalized first-version pages %+v", got, want)
	}
}

func TestClusterBoot(t *testing.T) {
	c := smallCluster(t)
	if len(c.Peers) != 10 || len(c.Bees) != 3 {
		t.Fatalf("peers=%d bees=%d", len(c.Peers), len(c.Bees))
	}
	for _, b := range c.Bees {
		info, ok := c.QB.WorkerInfo(b.Account.Address())
		if !ok || !info.Active {
			t.Fatalf("bee %s not registered: %+v", b.Name, info)
		}
	}
	if err := c.Chain.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestPublishIndexSearchPipeline(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 1000)
	c.Seal()

	text := "queen bees coordinate the honey colony with remarkable precision"
	if _, err := c.Publish(alice, c.Peers[0], "dweb://hive", text, nil); err != nil {
		t.Fatal(err)
	}
	c.Seal() // publish tx executes, task created
	rounds := c.RunUntilIdle(5)
	if open, finalized, failed := c.QB.TaskCounts(); open != 0 || finalized != 1 || failed != 0 {
		t.Fatalf("tasks open=%d finalized=%d failed=%d after %d rounds", open, finalized, failed, rounds)
	}

	fe := NewFrontend(c, c.Peers[5])
	resp, err := fe.Search("honey colony", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].URL != "dweb://hive" {
		t.Fatalf("results = %+v", resp.Results)
	}
	// With K=8 replication on a 13-node swarm the frontend peer may hold
	// every record locally (zero cost) — that is the DWeb caching
	// advantage, so only sanity-check the accounting.
	if resp.Cost.Latency < 0 {
		t.Fatal("negative search cost")
	}

	// Fetching the result returns the genuine content, hash-verified.
	content, _, err := fe.FetchResult(resp.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != text {
		t.Fatal("fetched content differs from published text")
	}
}

func TestSearchConjunctiveSemantics(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 1000)
	c.Seal()
	docs := map[string]string{
		"dweb://a": "red apples grow on trees",
		"dweb://b": "red fire trucks drive fast",
		"dweb://c": "apples and fire do not mix",
	}
	for url, text := range docs {
		if _, err := c.Publish(alice, c.Peers[0], url, text, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal()
	c.RunUntilIdle(6)

	fe := NewFrontend(c, c.Peers[3])
	resp, err := fe.Search("red apples", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].URL != "dweb://a" {
		t.Fatalf("AND semantics broken: %+v", resp.Results)
	}
	// A term with no postings yields no results, no error.
	resp, err = fe.Search("nonexistentterm apples", 10)
	if err != nil || len(resp.Results) != 0 {
		t.Fatalf("missing term: results=%v err=%v", resp.Results, err)
	}
}

func TestRepublishFreshness(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 1000)
	c.Seal()
	c.Publish(alice, c.Peers[0], "dweb://page", "original ancient words", nil)
	c.Seal()
	c.RunUntilIdle(5)

	fe := NewFrontend(c, c.Peers[4])
	resp, _ := fe.Search("ancient", 10)
	if len(resp.Results) != 1 {
		t.Fatalf("v1 not searchable: %+v", resp.Results)
	}

	// Republish with different content; the old term must vanish.
	c.Publish(alice, c.Peers[0], "dweb://page", "fresh modern phrasing", nil)
	c.Seal()
	c.RunUntilIdle(5)

	resp, _ = fe.Search("ancient", 10)
	if len(resp.Results) != 0 {
		t.Fatalf("stale postings survived republish: %+v", resp.Results)
	}
	resp, _ = fe.Search("modern", 10)
	if len(resp.Results) != 1 {
		t.Fatalf("v2 not searchable: %+v", resp.Results)
	}
}

func TestBeesEarnTaskRewards(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 1000)
	c.Seal()
	before := make(map[string]uint64)
	for _, b := range c.Bees {
		before[b.Name] = c.Chain.State().Balance(b.Account.Address())
	}
	c.Publish(alice, c.Peers[0], "dweb://p", "reward worthy content here", nil)
	c.Seal()
	c.RunUntilIdle(5)

	earned := 0
	for _, b := range c.Bees {
		if c.Chain.State().Balance(b.Account.Address()) > before[b.Name] {
			earned++
		}
	}
	if earned == 0 {
		t.Fatal("no bee earned a task reward")
	}
	st := c.Chain.State()
	if st.SumBalances() != st.Supply() {
		t.Fatal("honey conservation violated")
	}
}

func TestRankEpochEndToEnd(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 1000)
	c.Seal()
	// hub is linked by everyone.
	c.Publish(alice, c.Peers[0], "dweb://hub", "the central hub of everything", nil)
	for _, u := range []string{"dweb://s1", "dweb://s2", "dweb://s3"} {
		c.Publish(alice, c.Peers[0], u, "a spoke page linking to the hub "+u, []string{"dweb://hub"})
	}
	c.Seal()
	c.RunUntilIdle(6)

	epoch := c.StartRankEpoch(2)
	c.RunUntilIdle(6)
	re, ok := c.QB.RankEpochInfo(epoch)
	if !ok || !re.Done {
		t.Fatalf("epoch not finalized: %+v", re)
	}
	hub := c.QB.PageRank("dweb://hub")
	spoke := c.QB.PageRank("dweb://s1")
	if hub <= spoke {
		t.Fatalf("hub rank %v should exceed spoke %v", hub, spoke)
	}

	fe := NewFrontend(c, c.Peers[2])
	top := fe.TopRankedPages(1)
	if len(top) != 1 || top[0] != "dweb://hub" {
		t.Fatalf("top pages = %v", top)
	}
}

func TestPageRankInfluencesSearchOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 10
	cfg.NumBees = 3
	cfg.RankWeight = 5.0
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 1000)
	c.Seal()

	// Same text so BM25 ties; popularity must break the tie.
	text := "identical twin pages about beekeeping techniques"
	c.Publish(alice, c.Peers[0], "dweb://popular", text, nil)
	c.Publish(alice, c.Peers[0], "dweb://obscure", text, nil)
	for i := 0; i < 5; i++ {
		c.Publish(alice, c.Peers[0], urlFor(i), "filler linking page", []string{"dweb://popular"})
	}
	c.Seal()
	c.RunUntilIdle(8)
	c.StartRankEpoch(1)
	c.RunUntilIdle(6)

	fe := NewFrontend(c, c.Peers[1])
	resp, err := fe.Search("beekeeping techniques", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if resp.Results[0].URL != "dweb://popular" {
		t.Fatalf("page rank did not lift popular page: %+v", resp.Results)
	}
}

func urlFor(i int) string {
	return "dweb://filler-" + string(rune('a'+i))
}

func TestAdsAppearInSearch(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 1000)
	adv := c.NewAccount("adv", 5000)
	c.Seal()
	c.Publish(alice, c.Peers[0], "dweb://shoes", "running shoes for marathon training", nil)
	c.SubmitCall(adv, contracts.MethodRegisterAd, contracts.RegisterAdParams{
		Keywords: []string{"shoe", "marathon"}, BidPerClick: 10,
	}, 500)
	c.Seal()
	c.RunUntilIdle(5)

	fe := NewFrontend(c, c.Peers[2])
	resp, err := fe.Search("marathon shoes", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ads) != 1 {
		t.Fatalf("ads = %+v", resp.Ads)
	}

	// A click pays the creator.
	before := c.Chain.State().Balance(alice.Address())
	c.SubmitCall(alice, contracts.MethodClick, contracts.ClickParams{
		AdID: resp.Ads[0].ID, URL: "dweb://shoes",
	}, 0)
	c.Seal()
	if got := c.Chain.State().Balance(alice.Address()); got <= before {
		t.Fatal("creator did not receive click revenue")
	}
}

func TestCollusionCorruptsIndexWithMajority(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 8
	cfg.NumBees = 3
	c := NewCluster(cfg)
	// 2 of 3 bees collude; quorum 3 → colluders win every task.
	c.Bees[0].Colluding = true
	c.Bees[1].Colluding = true
	alice := c.NewAccount("alice", 1000)
	c.Seal()
	c.Publish(alice, c.Peers[0], "dweb://victim", "legitimate content to destroy", nil)
	c.Seal()
	c.RunUntilIdle(5)

	task, ok := c.QB.TaskInfo("idx:dweb://victim:1")
	if !ok || task.Status != contracts.StatusFinalized {
		t.Fatalf("task = %+v", task)
	}
	// The honest bee computed a different digest and was slashed.
	honest := c.Bees[2]
	info, _ := c.QB.WorkerInfo(honest.Account.Address())
	if info.Slashes != 1 {
		t.Fatalf("honest bee slashes = %d, want 1 (attack succeeded)", info.Slashes)
	}
	// Search now surfaces the spam doc, not the victim content.
	fe := NewFrontend(c, c.Peers[1])
	resp, _ := fe.Search("legitimate content", 10)
	if len(resp.Results) != 0 {
		t.Fatalf("victim content should be gone from index: %+v", resp.Results)
	}
}

func TestSingleColluderIsDefeatedAndSlashed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 8
	cfg.NumBees = 3
	c := NewCluster(cfg)
	c.Bees[0].Colluding = true // minority
	alice := c.NewAccount("alice", 1000)
	c.Seal()
	c.Publish(alice, c.Peers[0], "dweb://safe", "protected by quorum voting", nil)
	c.Seal()
	c.RunUntilIdle(5)

	info, _ := c.QB.WorkerInfo(c.Bees[0].Account.Address())
	if info.Slashes != 1 {
		t.Fatalf("colluder slashes = %d, want 1", info.Slashes)
	}
	fe := NewFrontend(c, c.Peers[1])
	resp, _ := fe.Search("quorum voting", 10)
	if len(resp.Results) != 1 || resp.Results[0].URL != "dweb://safe" {
		t.Fatalf("honest index should win: %+v", resp.Results)
	}
}

func TestScraperDefenseZeroesMirrorRank(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 8
	cfg.NumBees = 3
	c := NewCluster(cfg)
	for _, b := range c.Bees {
		b.DetectDuplicates = true
	}
	alice := c.NewAccount("alice", 1000)
	scraper := c.NewAccount("scraper", 1000)
	c.Seal()

	original := "an extensive article describing the honeybee waggle dance communication system in detail " +
		strings.Repeat("waggle dance communication ", 10)
	c.Publish(alice, c.Peers[0], "dweb://original", original, nil)
	c.Seal()
	c.RunUntilIdle(5)
	// Scraper publishes a near-identical mirror later.
	c.Publish(scraper, c.Peers[1], "dweb://mirror", original+" copied", nil)
	c.Seal()
	c.RunUntilIdle(5)

	c.StartRankEpoch(1)
	c.RunUntilIdle(6)

	if mirror := c.QB.PageRank("dweb://mirror"); mirror != 0 {
		t.Fatalf("mirror rank = %v, want 0 (defense active)", mirror)
	}
	if orig := c.QB.PageRank("dweb://original"); orig <= 0 {
		t.Fatalf("original rank = %v, want > 0", orig)
	}
}

func TestPopularityRewardFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPeers = 8
	cfg.NumBees = 3
	cfg.Contract.PopularityThreshold = 0.2
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 1000)
	c.Seal()
	c.Publish(alice, c.Peers[0], "dweb://hub", "the hub everyone links to", nil)
	for i := 0; i < 4; i++ {
		c.Publish(alice, c.Peers[0], urlFor(i), "spoke page", []string{"dweb://hub"})
	}
	c.Seal()
	c.RunUntilIdle(8)
	epoch := c.StartRankEpoch(1)
	c.RunUntilIdle(6)

	before := c.Chain.State().Balance(alice.Address())
	tx := c.PayPopularity(epoch)
	r := c.Chain.Receipt(tx.Hash())
	if r == nil || !r.OK {
		t.Fatalf("popularity payout failed: %+v", r)
	}
	if got := c.Chain.State().Balance(alice.Address()); got <= before {
		t.Fatal("popular owner not rewarded")
	}
}

func TestChainIntegrityAfterFullWorkload(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 1000)
	c.Seal()
	for i := 0; i < 5; i++ {
		c.Publish(alice, c.Peers[0], urlFor(i), "document number "+string(rune('0'+i)), nil)
	}
	c.Seal()
	c.RunUntilIdle(8)
	if err := c.Chain.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := c.Chain.State()
	if st.SumBalances() != st.Supply() {
		t.Fatal("conservation violated")
	}
}

func TestAddBeeDynamically(t *testing.T) {
	c := smallCluster(t)
	n := len(c.Bees)
	bee := c.AddBee("late-bee")
	c.Seal()
	if len(c.Bees) != n+1 {
		t.Fatal("bee not added")
	}
	info, ok := c.QB.WorkerInfo(bee.Account.Address())
	if !ok || !info.Active {
		t.Fatalf("late bee not active: %+v", info)
	}
}

func TestFundAndAccounts(t *testing.T) {
	c := smallCluster(t)
	acct := c.NewAccount("funded", 777)
	c.Seal()
	if got := c.Chain.State().Balance(acct.Address()); got != 777 {
		t.Fatalf("balance = %d, want 777", got)
	}
	// Deterministic account derivation.
	again := chain.NewNamedAccount(c.Config().Seed, "acct:funded")
	if again.Address() != acct.Address() {
		t.Fatal("account derivation not deterministic")
	}
}
