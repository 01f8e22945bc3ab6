package queenbee

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

func newEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	base := []Option{WithSeed(7), WithPeers(10), WithBees(3)}
	return New(append(base, opts...)...)
}

func TestEngineQuickstartFlow(t *testing.T) {
	e := newEngine(t)
	alice := e.NewAccount("alice", 1000)
	if err := e.Publish(alice, "dweb://hive", "worker bees build honeycomb cells", nil); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle()
	results, _, err := e.Search("honeycomb cells", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].URL != "dweb://hive" {
		t.Fatalf("results = %+v", results)
	}
	content, err := e.Fetch(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(content, "honeycomb") {
		t.Fatalf("content = %q", content)
	}
}

func TestEngineOptionsApply(t *testing.T) {
	e := New(WithSeed(3), WithPeers(6), WithBees(2),
		func(c *core.Config) { c.NumShards = 4 },
		func(c *core.Config) { c.RankWeight = 2.5 },
		func(c *core.Config) { c.Contract.PopularityThreshold = 0.5 })
	cfg := e.Cluster.Config()
	if cfg.NumPeers != 6 || cfg.NumBees != 2 || cfg.NumShards != 4 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.RankWeight != 2.5 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Contract.PopularityThreshold != 0.5 {
		t.Fatalf("threshold = %v", cfg.Contract.PopularityThreshold)
	}
}

func TestEngineRanksAndRewards(t *testing.T) {
	e := newEngine(t, func(c *core.Config) { c.Contract.PopularityThreshold = 0.2 })
	alice := e.NewAccount("alice", 1000)
	e.Publish(alice, "dweb://hub", "the page everyone cites", nil)
	for _, u := range []string{"dweb://x", "dweb://y", "dweb://z"} {
		e.Publish(alice, u, "citation page "+u, []string{"dweb://hub"})
	}
	e.RunUntilIdle()
	epoch := e.ComputeRanks(2)
	if e.PageRank("dweb://hub") <= e.PageRank("dweb://x") {
		t.Fatal("hub should outrank spokes")
	}
	before := e.Balance(alice)
	if err := e.PayPopularityRewards(epoch); err != nil {
		t.Fatal(err)
	}
	if e.Balance(alice) <= before {
		t.Fatal("popularity reward not paid")
	}
}

func TestEngineAdFlow(t *testing.T) {
	e := newEngine(t)
	alice := e.NewAccount("alice", 1000)
	adv := e.NewAccount("brand", 5000)
	user := e.NewAccount("user", 100)
	e.Publish(alice, "dweb://recipes", "sourdough bread baking recipes", nil)
	e.RunUntilIdle()

	adID, err := e.RegisterAd(adv, []string{"bread", "baking"}, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	_, ads, err := e.Search("bread baking", 10)
	if err != nil || len(ads) != 1 || ads[0].ID != adID {
		t.Fatalf("ads=%v err=%v", ads, err)
	}
	creatorBefore := e.Balance(alice)
	if err := e.Click(user, adID, "dweb://recipes"); err != nil {
		t.Fatal(err)
	}
	if e.Balance(alice) <= creatorBefore {
		t.Fatal("creator not paid for click")
	}
}

func TestEngineStats(t *testing.T) {
	e := newEngine(t)
	alice := e.NewAccount("alice", 1000)
	e.Publish(alice, "dweb://one", "first page text", nil)
	e.RunUntilIdle()
	s := e.Stats()
	if s.Pages != 1 || s.TasksFinalized != 1 || s.TasksOpen != 0 || s.Workers != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Height == 0 || s.HoneySupply == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Result {
		e := New(WithSeed(42), WithPeers(8), WithBees(3))
		a := e.NewAccount("a", 1000)
		e.Publish(a, "dweb://d1", "alpha beta gamma delta", nil)
		e.Publish(a, "dweb://d2", "alpha beta epsilon zeta", nil)
		e.RunUntilIdle()
		res, _, _ := e.Search("alpha beta", 10)
		return res
	}
	x, y := run(), run()
	if len(x) != len(y) || len(x) != 2 {
		t.Fatalf("lens: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("nondeterministic results: %+v vs %+v", x[i], y[i])
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e := newEngine(t)
	alice := e.NewAccount("alice", 1000)
	user := e.NewAccount("user", 10)
	if _, _, err := e.Search("the of and", 10); err == nil {
		t.Fatal("stopword-only query should error")
	}
	if err := e.Click(user, 999, "dweb://nope"); err == nil {
		t.Fatal("click on unknown ad should error")
	}
	if _, err := e.Fetch(Result{URL: "dweb://ghost"}); err == nil {
		t.Fatal("fetch of unregistered page should error")
	}
	_ = alice
}

// TestEnginePublishRejected: a registration the contract refuses — a URL
// another account owns, an empty URL — is an error matching
// ErrBatchRejected, and leaves the deployment as it was: no content
// stored on any peer, no block sealed, the page still its owner's and
// the refused text unsearchable.
func TestEnginePublishRejected(t *testing.T) {
	e := newEngine(t)
	alice := e.NewAccount("alice", 1000)
	bob := e.NewAccount("bob", 1000)
	if err := e.Publish(alice, "dweb://x", "alice wrote this page", nil); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle()
	before, _ := e.Cluster.QB.Page("dweb://x")
	pinned := func() int {
		n := 0
		for _, p := range e.Cluster.Peers {
			n += p.Blocks().StatsSnapshot().Pinned
		}
		return n
	}
	pinnedBefore, heightBefore := pinned(), e.Cluster.Chain.Height()

	for _, url := range []string{"dweb://x", ""} {
		if err := e.Publish(bob, url, "bob overwrites with zanzibarian text", nil); !errors.Is(err, ErrBatchRejected) {
			t.Fatalf("publish of %q: err = %v, want ErrBatchRejected", url, err)
		}
	}
	if got := pinned(); got != pinnedBefore {
		t.Fatalf("refused publishes stored content: %d blocks pinned, %d before", got, pinnedBefore)
	}
	if got := e.Cluster.Chain.Height(); got != heightBefore {
		t.Fatalf("refused publishes sealed blocks: height %d, %d before", got, heightBefore)
	}

	e.RunUntilIdle()
	if after, _ := e.Cluster.QB.Page("dweb://x"); after.Owner != before.Owner || after.CID != before.CID || after.Seq != before.Seq {
		t.Fatalf("page record moved: %+v, was %+v", after, before)
	}
	if results, _, err := e.Search("zanzibarian", 10); err != nil || len(results) != 0 {
		t.Fatalf("refused text is searchable: %+v err=%v", results, err)
	}
	if results, _, err := e.Search("alice wrote", 10); err != nil || len(results) != 1 || results[0].URL != "dweb://x" {
		t.Fatalf("owner's page: %+v err=%v", results, err)
	}
}
