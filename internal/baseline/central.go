// Package baseline implements the comparison systems the paper implies:
//
//   - CentralEngine — a conventional ("Web 2.0") search engine: one
//     server that crawls sites on a fixed interval and answers queries
//     over RPC. It inherits the weaknesses the paper attributes to
//     centralized search: a single point of failure (E3), a DDoS target
//     (E4), and crawl-bounded freshness (E5).
//   - UnverifiedP2P — a YaCy-style P2P keyword index: publishers write
//     postings straight into a keyword DHT with no incentives and no
//     verification, so any peer can poison any term (the contrast for
//     E11's quorum defense).
package baseline

import (
	"context"
	"sort"
	"time"

	"repro/internal/index"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

// ContentSource lets the crawler read the current content of a URL (the
// "origin server" of Web 2.0).
type ContentSource interface {
	Content(url string) (text string, ok bool)
	URLs() []string
}

// MapSource is a mutable in-memory ContentSource.
type MapSource struct {
	pages map[string]string
}

// NewMapSource creates an empty source.
func NewMapSource() *MapSource { return &MapSource{pages: make(map[string]string)} }

// Set publishes or updates a page.
func (m *MapSource) Set(url, text string) { m.pages[url] = text }

// Content implements ContentSource.
func (m *MapSource) Content(url string) (string, bool) {
	t, ok := m.pages[url]
	return t, ok
}

// URLs implements ContentSource.
func (m *MapSource) URLs() []string {
	out := make([]string, 0, len(m.pages))
	for u := range m.pages {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// searchReq is the RPC a client sends to the central server.
type searchReq struct {
	Query string
	K     int
}

type searchResp struct {
	URLs []string
}

func (r searchReq) WireSize() int  { return 16 + len(r.Query) }
func (r searchResp) WireSize() int { return wireSizeURLs(r.URLs) }

func wireSizeURLs(urls []string) int {
	n := 8
	for _, u := range urls {
		n += len(u) + 4
	}
	return n
}

// CentralEngine is the centralized crawl-based search engine.
type CentralEngine struct {
	net    *netsim.Network
	clock  *vclock.Clock
	addr   netsim.NodeID
	source ContentSource

	interval time.Duration
	// PerPage is the politeness-limited fetch time per page: a crawl of
	// n pages only becomes the serving index PerPage×n after it starts.
	// Zero makes crawls instantaneous.
	PerPage time.Duration

	seg    *index.Segment
	docURL map[index.DocID]string
	gen    uint64

	crawlTimer *vclock.Timer
}

// NewCentralEngine boots the server on the network and schedules crawls
// every interval. The first crawl runs immediately.
func NewCentralEngine(net *netsim.Network, clock *vclock.Clock, addr netsim.NodeID, source ContentSource, interval time.Duration) *CentralEngine {
	e := &CentralEngine{
		net:      net,
		clock:    clock,
		addr:     addr,
		source:   source,
		interval: interval,
		seg:      index.NewSegment(0),
		docURL:   make(map[index.DocID]string),
	}
	net.Register(addr, e.handle)
	e.Crawl()
	e.schedule()
	return e
}

// Addr returns the server's network address.
func (e *CentralEngine) Addr() netsim.NodeID { return e.addr }

func (e *CentralEngine) schedule() {
	if e.interval <= 0 {
		return
	}
	e.crawlTimer = e.clock.AfterFunc(e.interval, func(time.Time) {
		e.Crawl()
		e.schedule()
	})
}

// Stop cancels future crawls.
func (e *CentralEngine) Stop() {
	if e.crawlTimer != nil {
		e.crawlTimer.Stop()
	}
}

// Crawl re-reads every URL from the source and rebuilds the index. The
// staleness this models is the paper's core freshness complaint: a page
// updated just after a crawl stays invisible until the next one — and
// with PerPage > 0, not even then: the crawl itself takes time
// proportional to the corpus.
func (e *CentralEngine) Crawl() {
	e.gen++
	b := index.NewBuilder(e.gen)
	docURL := make(map[index.DocID]string)
	pages := 0
	for _, url := range e.source.URLs() {
		text, ok := e.source.Content(url)
		if !ok {
			continue
		}
		id := index.DocIDOf(url)
		b.Add(id, text)
		docURL[id] = url
		pages++
	}
	seg := b.Build()
	install := func(time.Time) {
		e.seg = seg
		e.docURL = docURL
	}
	if e.PerPage <= 0 {
		install(e.clock.Now())
		return
	}
	e.clock.AfterFunc(time.Duration(pages)*e.PerPage, install)
}

// handle serves search RPCs.
func (e *CentralEngine) handle(_ netsim.NodeID, req any) (any, error) {
	sr, ok := req.(searchReq)
	if !ok {
		return nil, netsim.ErrNoHandler
	}
	return searchResp{URLs: e.searchLocal(sr.Query, sr.K)}, nil
}

// searchLocal runs the query against the crawl index.
func (e *CentralEngine) searchLocal(query string, k int) []string {
	terms := index.AnalyzeQuery(query)
	if len(terms) == 0 {
		return nil
	}
	var lists [][]index.DocID
	for _, t := range terms {
		pl := e.seg.Postings(t)
		if len(pl) == 0 {
			return nil
		}
		lists = append(lists, pl.Docs())
	}
	docs := index.IntersectGallop(lists)
	var totalLen uint64
	for _, l := range e.seg.DocLens {
		totalLen += uint64(l)
	}
	avg := 1.0
	if n := len(e.seg.DocLens); n > 0 {
		avg = float64(totalLen) / float64(n)
	}
	scorer := index.NewScorer(index.CorpusStats{DocCount: len(e.seg.DocLens), AvgDocLen: avg}, 0)
	scored := make([]index.ScoredDoc, 0, len(docs))
	for _, d := range docs {
		var s float64
		for _, t := range terms {
			pl := e.seg.Postings(t)
			if p, ok := pl.Find(d); ok {
				s += scorer.TermScore(p.TF, e.seg.DocLens[d], len(pl))
			}
		}
		scored = append(scored, index.ScoredDoc{Doc: d, Score: s})
	}
	var urls []string
	for _, sd := range index.TopK(scored, k) {
		if u := e.docURL[sd.Doc]; u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// centralSearchRetries bounds how many times a client re-issues a query
// that failed transiently (dropped on a lossy link, shed by an
// overloaded server). Structural failures — server down, partition —
// are never retried.
const centralSearchRetries = 2

// Search issues a query from a client node over the network, so failures
// (server down, partition, overload) behave like the real thing.
// Transient failures are retried up to centralSearchRetries times, the
// same client behavior the decentralized engine's DHT call layer has;
// every attempt's simulated cost is accumulated.
func (e *CentralEngine) Search(from netsim.NodeID, query string, k int) ([]string, netsim.Cost, error) {
	var total netsim.Cost
	for attempt := 0; ; attempt++ {
		resp, cost, err := e.net.CallCtx(context.Background(), from, e.addr, searchReq{Query: query, K: k})
		total = total.Seq(cost)
		if err == nil {
			return resp.(searchResp).URLs, total, nil
		}
		if !netsim.Retryable(err) || attempt >= centralSearchRetries {
			return nil, total, err
		}
	}
}
