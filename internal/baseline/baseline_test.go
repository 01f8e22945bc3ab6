package baseline

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

func newWorld(t *testing.T) (*netsim.Network, *vclock.Clock) {
	t.Helper()
	return netsim.New(netsim.DefaultConfig()), vclock.New(time.Time{})
}

func TestCentralCrawlAndSearch(t *testing.T) {
	net, clock := newWorld(t)
	net.Register("client", nil)
	src := NewMapSource()
	src.Set("http://a", "golden retrievers are friendly dogs")
	src.Set("http://b", "siamese cats are independent")
	e := NewCentralEngine(net, clock, "server", src, time.Minute)

	urls, _, err := e.Search("client", "friendly dogs", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 1 || urls[0] != "http://a" {
		t.Fatalf("urls = %v", urls)
	}
}

func TestCentralFreshnessBoundedByCrawl(t *testing.T) {
	net, clock := newWorld(t)
	net.Register("client", nil)
	src := NewMapSource()
	src.Set("http://a", "original text")
	e := NewCentralEngine(net, clock, "server", src, 10*time.Minute)

	// Update the page right after the first crawl.
	src.Set("http://a", "updated revolutionary text")
	urls, _, _ := e.Search("client", "revolutionary", 10)
	if len(urls) != 0 {
		t.Fatal("update visible before any crawl — impossible for a crawler")
	}
	// Not yet: 9 minutes in, still the old index.
	clock.Advance(9 * time.Minute)
	urls, _, _ = e.Search("client", "revolutionary", 10)
	if len(urls) != 0 {
		t.Fatal("update visible before crawl interval elapsed")
	}
	// After the crawl fires, the update is searchable.
	clock.Advance(2 * time.Minute)
	urls, _, _ = e.Search("client", "revolutionary", 10)
	if len(urls) != 1 {
		t.Fatalf("update not visible after crawl: %v", urls)
	}
}

func TestCentralSinglePointOfFailure(t *testing.T) {
	net, clock := newWorld(t)
	net.Register("client", nil)
	src := NewMapSource()
	src.Set("http://a", "some content")
	e := NewCentralEngine(net, clock, "server", src, time.Minute)

	net.SetDown("server", true)
	_, _, err := e.Search("client", "content", 10)
	if !errors.Is(err, netsim.ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
}

func TestCentralOverloadShedsQueries(t *testing.T) {
	net, clock := newWorld(t)
	net.Register("client", nil)
	src := NewMapSource()
	src.Set("http://a", "some content words")
	e := NewCentralEngine(net, clock, "server", src, time.Minute)

	net.SetCapacity("server", 100)
	net.SetOfferedLoad("server", 1000) // 10x overload
	fails := 0
	for i := 0; i < 200; i++ {
		if _, _, err := e.Search("client", "content", 10); err != nil {
			fails++
		}
	}
	if fails < 100 {
		t.Fatalf("only %d/200 failed under 10x overload", fails)
	}
}

func TestCentralStopCancelsCrawls(t *testing.T) {
	net, clock := newWorld(t)
	net.Register("client", nil)
	src := NewMapSource()
	e := NewCentralEngine(net, clock, "server", src, time.Minute)
	e.Stop()
	src.Set("http://a", "published after the last crawl")
	clock.Advance(time.Hour)
	if urls, _, err := e.Search("client", "published", 10); err != nil || len(urls) != 0 {
		t.Fatalf("crawls continued after Stop: urls=%v err=%v", urls, err)
	}
}

func buildP2PSwarm(t *testing.T, n int) []*dht.Node {
	t.Helper()
	net := netsim.New(netsim.DefaultConfig())
	nodes := make([]*dht.Node, n)
	for i := range nodes {
		nodes[i] = dht.NewNode(net, netsim.NodeID(fmt.Sprintf("p%02d", i)), dht.DefaultConfig())
	}
	for _, nd := range nodes[1:] {
		nd.Bootstrap([]dht.Contact{nodes[0].Self()})
	}
	for _, nd := range nodes {
		nd.Bootstrap([]dht.Contact{nodes[0].Self()})
	}
	return nodes
}

func TestUnverifiedPublishSearch(t *testing.T) {
	nodes := buildP2PSwarm(t, 16)
	u := NewUnverifiedP2P(8)
	if _, err := u.Publish(nodes[1], "dweb://a", "honey bees dance"); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Publish(nodes[2], "dweb://b", "honey badgers dig"); err != nil {
		t.Fatal(err)
	}
	urls, _, err := u.Search(nodes[9], "honey bees")
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 1 || urls[0] != "dweb://a" {
		t.Fatalf("urls = %v", urls)
	}
	both, _, _ := u.Search(nodes[9], "honey")
	if len(both) != 2 {
		t.Fatalf("single-term search = %v", both)
	}
}

func TestUnverifiedSearchMissingTerm(t *testing.T) {
	nodes := buildP2PSwarm(t, 8)
	u := NewUnverifiedP2P(8)
	urls, _, err := u.Search(nodes[0], "neverindexed")
	if err != nil || urls != nil {
		t.Fatalf("urls=%v err=%v", urls, err)
	}
}

func TestUnverifiedIndexPoisoning(t *testing.T) {
	// The attack the paper says YaCy-style systems cannot stop: anyone
	// injects spam under a popular term.
	nodes := buildP2PSwarm(t, 16)
	u := NewUnverifiedP2P(8)
	u.Publish(nodes[1], "dweb://legit", "reliable information source")
	if _, err := u.Poison(nodes[13], "reliable", "dweb://spam"); err != nil {
		t.Fatal(err)
	}
	urls, _, _ := u.Search(nodes[5], "reliable")
	found := false
	for _, url := range urls {
		if url == "dweb://spam" {
			found = true
		}
	}
	if !found {
		t.Fatalf("poisoning failed, urls = %v — baseline should be vulnerable", urls)
	}
}

func TestMapSource(t *testing.T) {
	m := NewMapSource()
	m.Set("u1", "t1")
	m.Set("u2", "t2")
	m.Set("u1", "t1b")
	if text, ok := m.Content("u1"); !ok || text != "t1b" {
		t.Fatalf("Content = %q, %v", text, ok)
	}
	if _, ok := m.Content("ghost"); ok {
		t.Fatal("missing URL should not resolve")
	}
	urls := m.URLs()
	if len(urls) != 2 || urls[0] != "u1" || urls[1] != "u2" {
		t.Fatalf("URLs = %v", urls)
	}
}

func TestCrawlDurationDelaysVisibility(t *testing.T) {
	net, clock := newWorld(t)
	net.Register("client", nil)
	src := NewMapSource()
	for i := 0; i < 10; i++ {
		src.Set(fmt.Sprintf("http://site/%d", i), "filler page content")
	}
	e := NewCentralEngine(net, clock, "server", src, time.Hour)
	e.PerPage = 30 * time.Second // 10 pages → 5-minute crawl

	// The initial (instant, PerPage set after boot) index is live; now a
	// page updates and we force a re-crawl.
	src.Set("http://site/0", "breaking slowcrawl news")
	e.Crawl()
	urls, _, _ := e.Search("client", "slowcrawl", 5)
	if len(urls) != 0 {
		t.Fatal("crawl results visible before the crawl finished")
	}
	clock.Advance(4 * time.Minute)
	urls, _, _ = e.Search("client", "slowcrawl", 5)
	if len(urls) != 0 {
		t.Fatal("crawl finished too early")
	}
	clock.Advance(2 * time.Minute)
	urls, _, _ = e.Search("client", "slowcrawl", 5)
	if len(urls) != 1 {
		t.Fatalf("crawl results missing after completion: %v", urls)
	}
}
