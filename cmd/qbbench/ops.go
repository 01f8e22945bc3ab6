package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/xrand"
)

// queryKind is the shape of a generated query; the mix is 50 % two-term
// AND, 20 % single term (the WANDTopKDirect path), 15 % OR, 10 % quoted
// phrase, 5 % AND with an exclusion.
type queryKind int

const (
	kindAnd queryKind = iota
	kindTerm
	kindOr
	kindPhrase
	kindExclude
)

// query is one generated search: the text sent to the server and the
// structure the traced run needs to redo the scoring outside the engine.
type query struct {
	Text  string
	Kind  queryKind
	Terms []string // positive words, then the excluded word for kindExclude
}

// serverSeed is queenbeed's default -seed. The server always boots with
// it, so the deployment (peer ids, link streams), the boot corpus and the
// query pool drawn from it are the same in every run; the benchmark's
// -seed picks the traffic — the order of the requests and the pages that
// are published.
const serverSeed = 1

// bootCorpus is the corpus queenbeed generates for -seed and -docs.
func bootCorpus(seed uint64, docs int) *corpus.Corpus {
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	cfg.NumDocs = docs
	return corpus.Generate(cfg)
}

// stems returns the analyzed terms of a text as a set.
func stems(text string) map[string]bool {
	out := make(map[string]bool)
	for _, tok := range index.Analyze(text) {
		out[tok.Term] = true
	}
	return out
}

// queryPool draws n distinct queries from the corpus. Words are taken
// in document order from one document, so every query — phrase and
// exclusion included — matches at least that document. The pool belongs
// to the corpus, not to the run: Zipf order puts two fifths of the
// requests on its first ten entries, and re-drawing those per run moved
// the simulated-cost medians by a fifth.
func queryPool(corp *corpus.Corpus, n int) []query {
	rng := xrand.NewNamed(serverSeed, "qbbench:queries")
	vocab := corpus.DefaultConfig().VocabSize
	seen := make(map[string]bool, n)
	out := make([]query, 0, n)
	// A small corpus cannot always yield n distinct queries.
	for tries := 0; len(out) < n && tries < 50*n; tries++ {
		doc := corp.Docs[rng.Intn(len(corp.Docs))]
		words := strings.Fields(doc.Text)
		at := rng.Intn(len(words) - 1)
		a, b := words[at], words[at+1]
		if index.Stem(a) == "" || index.Stem(b) == "" {
			continue // the analyzer would drop the word from the query
		}
		var q query
		switch r := rng.Float64(); {
		case r < 0.50:
			q = query{Text: a + " " + b, Kind: kindAnd, Terms: []string{a, b}}
		case r < 0.70:
			q = query{Text: a, Kind: kindTerm, Terms: []string{a}}
		case r < 0.85:
			q = query{Text: a + " OR " + b, Kind: kindOr, Terms: []string{a, b}}
		case r < 0.95:
			q = query{Text: `"` + a + " " + b + `"`, Kind: kindPhrase, Terms: []string{a, b}}
		default:
			in := stems(doc.Text)
			c := corp.Vocab(rng.Intn(vocab))
			for in[index.Stem(c)] {
				c = corp.Vocab(rng.Intn(vocab))
			}
			q = query{Text: a + " " + b + " -" + c, Kind: kindExclude, Terms: []string{a, b, c}}
		}
		if !seen[q.Text] {
			seen[q.Text] = true
			out = append(out, q)
		}
	}
	return out
}

// requestOrder draws n pool indices: Zipf(1.0) over the pool, or
// uniform. stream names the consumer, so two clients of one run send
// different sequences.
func requestOrder(seed uint64, stream string, pool, n int, zipf bool) []int {
	rng := xrand.NewNamed(seed, "qbbench:order:"+stream)
	out := make([]int, n)
	if zipf {
		z := xrand.NewZipf(rng, 1.0, pool)
		for i := range out {
			out[i] = z.Next()
		}
		return out
	}
	for i := range out {
		out[i] = rng.Intn(pool)
	}
	return out
}

// page is one document of a POST /publish body.
type page struct {
	URL   string   `json:"url"`
	Text  string   `json:"text"`
	Links []string `json:"links,omitempty"`
}

// publishBatches generates batches×pages fresh pages under dweb://bench/
// from a second corpus, seeded apart from any boot corpus. Links are
// kept where they point into the boot corpus of bootDocs pages.
func publishBatches(seed uint64, bootDocs, batches, pages int) [][]page {
	corp := bootCorpus(seed+1<<32, batches*pages)
	boot := make(map[string]bool, bootDocs)
	for i := 0; i < bootDocs; i++ {
		boot[corpus.URLOf(i)] = true
	}
	out := make([][]page, batches)
	for b := range out {
		for i := b * pages; i < (b+1)*pages; i++ {
			d := corp.Docs[i]
			p := page{URL: fmt.Sprintf("dweb://bench/p-%05d", i), Text: d.Text}
			for _, l := range d.Links {
				if boot[l] {
					p.Links = append(p.Links, l)
				}
			}
			out[b] = append(out[b], p)
		}
	}
	return out
}

// findQuery is a three-term AND of a page's own rarest words (highest
// vocabulary rank), which the page must answer once it is indexed.
func findQuery(corp *corpus.Corpus, p page) string {
	rank := make(map[string]int)
	for i := 0; i < corpus.DefaultConfig().VocabSize; i++ {
		rank[corp.Vocab(i)] = i
	}
	words := strings.Fields(p.Text)
	sort.Slice(words, func(i, j int) bool { return rank[words[i]] > rank[words[j]] })
	var pick []string
	for _, w := range words {
		if len(pick) == 0 || pick[len(pick)-1] != w {
			pick = append(pick, w)
		}
		if len(pick) == 3 {
			break
		}
	}
	return strings.Join(pick, " ")
}

// streamDigest hashes an operation stream: the query texts in request
// order, then every publish body. Same seed, same digest.
func streamDigest(pool []query, order []int, batches [][]page) string {
	h := sha256.New()
	for _, i := range order {
		fmt.Fprintf(h, "q %s\n", pool[i].Text)
	}
	for _, b := range batches {
		for _, p := range b {
			fmt.Fprintf(h, "p %s %s %s\n", p.URL, p.Text, strings.Join(p.Links, ","))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
