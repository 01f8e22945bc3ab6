// Package oracle models the answers QueenBee's search must give: the
// latest text of every published URL and a full scan per query. It
// shares only the analyzer, the query AST, the BM25 × rank formula and
// DocIDOf (the tie-break) with the engine, so a bug in the engine's
// shards, segments, merges, compaction or executors shows up as a
// disagreement with it.
package oracle

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/index"
	"repro/internal/query"
)

// Oracle holds the latest version of every URL. Not safe for
// concurrent mutation.
type Oracle struct {
	rankWeight float64
	docs       []*doc         // latest version per URL, in first-publish order
	at         map[string]int // URL → index into docs
	// BM25's collection statistics count every URL once, at its first
	// version (contracts.QueenBee.IndexStats).
	firstDocs   int
	firstTokens uint64
}

type doc struct {
	url string
	len uint32
	pos map[string][]uint32 // term → ascending token positions
}

// New returns an empty oracle that blends rank with rankWeight.
func New(rankWeight float64) *Oracle {
	return &Oracle{rankWeight: rankWeight, at: make(map[string]int)}
}

// Publish records text as url's latest version. A URL's first version
// also counts toward the collection statistics.
func (o *Oracle) Publish(url, text string) {
	toks := index.Analyze(text)
	d := &doc{url: url, len: uint32(len(toks)), pos: make(map[string][]uint32)}
	for _, t := range toks {
		d.pos[t.Term] = append(d.pos[t.Term], t.Pos)
	}
	if i, ok := o.at[url]; ok {
		o.docs[i] = d
		return
	}
	o.at[url] = len(o.docs)
	o.docs = append(o.docs, d)
	o.firstDocs++
	o.firstTokens += uint64(len(toks))
}

// Stats returns the first-version documents and their analyzed tokens.
func (o *Oracle) Stats() (docs int, tokens uint64) { return o.firstDocs, o.firstTokens }

// Result is one ranked hit.
type Result struct {
	URL   string
	Score float64
	Rank  float64
}

// Response is one page of results and how many documents matched.
type Response struct {
	Results []Result
	Total   int
}

// Flat builds a flat mode's AST: raw's distinct analyzed terms joined
// by kind (query.KindAnd, KindOr or KindPhrase); one term stands alone.
func Flat(raw string, kind query.Kind) (*query.Node, error) {
	terms := index.AnalyzeQuery(raw)
	switch {
	case len(terms) == 0:
		return nil, fmt.Errorf("%w: %q", query.ErrEmptyQuery, raw)
	case len(terms) == 1:
		return &query.Node{Kind: query.KindTerm, Term: terms[0]}, nil
	case kind == query.KindPhrase:
		return &query.Node{Kind: query.KindPhrase, Terms: terms}, nil
	}
	n := &query.Node{Kind: kind}
	for _, t := range terms {
		n.Kids = append(n.Kids, &query.Node{Kind: query.KindTerm, Term: t})
	}
	return n, nil
}

// Search scans every document against root, scores each match with
// BM25 over root's positive terms blended with its rank (by URL, over
// the maximum rank), orders by score descending then DocID ascending,
// and returns limit results from offset on.
func (o *Oracle) Search(root *query.Node, ranks map[string]float64, offset, limit int) Response {
	var matched []*doc
	df := make(map[string]int)
	for _, d := range o.docs {
		if match(root, d) {
			matched = append(matched, d)
		}
		for t := range d.pos {
			df[t]++
		}
	}
	avgLen := float64(o.firstTokens) / float64(max(o.firstDocs, 1))
	sc := index.NewScorer(index.CorpusStats{DocCount: o.firstDocs, AvgDocLen: avgLen}, o.rankWeight)
	maxRank := 0.0
	for _, r := range ranks {
		//detlint:ignore maprange max over float64 ranks is iteration-order independent
		maxRank = max(maxRank, r)
	}
	terms := positiveTerms(root, false, nil)
	all := make([]Result, len(matched))
	for i, d := range matched {
		text := 0.0
		for _, t := range terms {
			if tf := len(d.pos[t]); tf > 0 {
				text += sc.TermScore(uint32(tf), d.len, df[t])
			}
		}
		all[i] = Result{URL: d.url, Score: sc.Combine(text, ranks[d.url], maxRank), Rank: ranks[d.url]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return index.DocIDOf(all[i].URL) < index.DocIDOf(all[j].URL)
	})
	resp := Response{Total: len(all)}
	if offset < len(all) {
		resp.Results = all[offset:min(len(all), offset+limit)]
	}
	return resp
}

// match evaluates the boolean tree on one document. A conjunction needs
// a positive leg — one that is neither an exclusion nor a site: filter.
func match(n *query.Node, d *doc) bool {
	switch n.Kind {
	case query.KindTerm:
		return len(d.pos[n.Term]) > 0
	case query.KindPhrase:
		for _, start := range d.pos[n.Terms[0]] {
			i := 1
			for i < len(n.Terms) && slices.Contains(d.pos[n.Terms[i]], start+uint32(i)) {
				i++
			}
			if i == len(n.Terms) {
				return true
			}
		}
		return false
	case query.KindSite:
		return strings.HasPrefix(d.url, n.Prefix)
	case query.KindNot:
		return !match(n.Kids[0], d)
	case query.KindOr:
		return slices.ContainsFunc(n.Kids, func(k *query.Node) bool { return match(k, d) })
	}
	positive := false
	for _, k := range n.Kids {
		if !match(k, d) {
			return false
		}
		positive = positive || (k.Kind != query.KindNot && k.Kind != query.KindSite)
	}
	return positive
}

// positiveTerms appends the distinct terms of n not under an exclusion,
// in depth-first first-appearance order: the order scores are summed in.
func positiveTerms(n *query.Node, neg bool, out []string) []string {
	var terms []string
	switch n.Kind {
	case query.KindTerm:
		terms = []string{n.Term}
	case query.KindPhrase:
		terms = n.Terms
	case query.KindNot:
		neg = true
	}
	for _, t := range terms {
		if !neg && !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	for _, k := range n.Kids {
		out = positiveTerms(k, neg, out)
	}
	return out
}
