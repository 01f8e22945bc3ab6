// Package corpus generates the synthetic workload that stands in for the
// paper's Wikipedia snapshot: documents with Zipf-distributed vocabulary,
// a preferential-attachment link graph (so in-degree — and therefore page
// rank — is skewed like the real web), an update stream, and query
// workloads drawn from document text so conjunctive queries have hits.
package corpus

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/xrand"
)

// Config tunes the generator.
type Config struct {
	Seed       uint64
	NumDocs    int
	VocabSize  int
	ZipfS      float64 // vocabulary skew (1.0 ≈ natural language)
	MeanDocLen int     // tokens per document
	MeanLinks  int     // outgoing links per document
}

// DefaultConfig returns a light corpus good for tests.
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		NumDocs:    200,
		VocabSize:  2000,
		ZipfS:      1.0,
		MeanDocLen: 120,
		MeanLinks:  4,
	}
}

// Document is one synthetic page.
type Document struct {
	URL   string
	Title string
	Text  string
	Links []string
}

// Corpus is a generated document collection.
type Corpus struct {
	cfg   Config
	vocab []string
	Docs  []Document
}

// URLOf returns the canonical URL for document i.
func URLOf(i int) string { return fmt.Sprintf("dweb://wiki/page-%04d", i) }

// Generate builds a corpus deterministically from cfg.Seed.
func Generate(cfg Config) *Corpus {
	if cfg.NumDocs <= 0 {
		cfg.NumDocs = 100
	}
	if cfg.VocabSize <= 0 {
		cfg.VocabSize = 1000
	}
	if cfg.ZipfS <= 0 {
		cfg.ZipfS = 1.0
	}
	if cfg.MeanDocLen <= 0 {
		cfg.MeanDocLen = 100
	}
	rng := xrand.New(cfg.Seed)
	c := &Corpus{cfg: cfg, vocab: makeVocab(cfg.VocabSize)}
	zipf := xrand.NewZipf(rng.Split(), cfg.ZipfS, cfg.VocabSize)

	weights := newAttachment(cfg.NumDocs)
	for i := 0; i < cfg.NumDocs; i++ {
		doc := Document{URL: URLOf(i)}
		// Title: 2-4 mid-frequency words.
		titleWords := 2 + rng.Intn(3)
		var title []string
		for w := 0; w < titleWords; w++ {
			title = append(title, c.vocab[zipf.Next()])
		}
		doc.Title = strings.Join(title, " ")

		// Body length varies ±50% around the mean.
		length := cfg.MeanDocLen/2 + rng.Intn(cfg.MeanDocLen+1)
		var body []string
		body = append(body, title...) // titles appear in the body text
		for w := 0; w < length; w++ {
			body = append(body, c.vocab[zipf.Next()])
		}
		doc.Text = strings.Join(body, " ")

		// Preferential attachment: link to earlier docs ∝ (in-degree+1),
		// the weights frozen while this document draws its links.
		if i > 0 && cfg.MeanLinks > 0 {
			nLinks := rng.Intn(2*cfg.MeanLinks + 1)
			var targets []int
			for l := 0; l < nLinks; l++ {
				target := weights.draw(rng, i)
				if slices.Contains(targets, target) {
					continue
				}
				targets = append(targets, target)
				doc.Links = append(doc.Links, URLOf(target))
			}
			for _, target := range targets {
				weights.add(target, 1)
			}
		}
		weights.add(i, 1) // in-degree 0, plus one
		c.Docs = append(c.Docs, doc)
	}
	return c
}

// attachment is a Fenwick tree over the documents' integer
// preferential-attachment weights (in-degree + 1; 0 until a document is
// generated), so a link draw costs O(log N) instead of a scan of every
// earlier document.
type attachment struct {
	tree  []int64 // 1-based: tree[j] sums the weights of (j - j&-j, j]
	total int64
}

func newAttachment(n int) *attachment { return &attachment{tree: make([]int64, n+1)} }

// add raises document i's weight by delta.
func (a *attachment) add(i int, delta int64) {
	a.total += delta
	for j := i + 1; j < len(a.tree); j += j & -j {
		a.tree[j] += delta
	}
}

// draw picks one of the first n documents, each with probability
// weight ÷ total, from one Float64: the first document whose inclusive
// prefix sum exceeds u = Float64()·total, which is what xrand.Weighted
// returns over the same weights (prefix sums of integers are exact in a
// float64, so the comparisons agree too).
func (a *attachment) draw(rng *xrand.RNG, n int) int {
	u := rng.Float64() * float64(a.total)
	// Descend to the longest prefix whose sum is ≤ u.
	pos, acc := 0, int64(0)
	for step := 1 << (bits.Len(uint(len(a.tree)-1)) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(a.tree) && float64(acc+a.tree[next]) <= u {
			pos, acc = next, acc+a.tree[next]
		}
	}
	return min(pos, n-1)
}

// makeVocab builds pronounceable deterministic words: syllable chains
// indexed in base-|syllables|.
func makeVocab(n int) []string {
	syll := []string{
		"ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
		"ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
		"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
		"ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
		"ta", "te", "ti", "to", "tu", "va", "ve", "vi", "vo", "vu",
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		v := i
		var b strings.Builder
		// At least two syllables so words survive the stemmer mostly
		// intact and never collide with the stop list.
		b.WriteString(syll[v%len(syll)])
		v /= len(syll)
		b.WriteString(syll[v%len(syll)])
		v /= len(syll)
		for v > 0 {
			b.WriteString(syll[v%len(syll)])
			v /= len(syll)
		}
		out[i] = b.String()
	}
	return out
}

// Vocab returns word i of the vocabulary (rank 0 = most frequent).
func (c *Corpus) Vocab(i int) string { return c.vocab[i] }

// LinkGraph returns url → outgoing links for the whole corpus.
func (c *Corpus) LinkGraph() map[string][]string {
	out := make(map[string][]string, len(c.Docs))
	for _, d := range c.Docs {
		out[d.URL] = append([]string(nil), d.Links...)
	}
	return out
}

// Revise produces an updated version of document i: a fraction of its
// tokens are redrawn, modelling an edit. The same corpus RNG state is not
// reused; revisions are deterministic per (seed, i, revision).
func (c *Corpus) Revise(i int, revision int, fraction float64) Document {
	doc := c.Docs[i]
	rng := xrand.NewNamed(c.cfg.Seed, fmt.Sprintf("revise:%d:%d", i, revision))
	zipf := xrand.NewZipf(rng.Split(), c.cfg.ZipfS, c.cfg.VocabSize)
	words := strings.Fields(doc.Text)
	for w := range words {
		if rng.Bool(fraction) {
			words[w] = c.vocab[zipf.Next()]
		}
	}
	out := doc
	out.Text = strings.Join(words, " ")
	return out
}

// Query is one search request with its expected AND semantics.
type Query struct {
	Text  string
	Terms []string
}

// Queries samples n conjunctive queries of the given length by taking
// consecutive tokens from random documents, so every query has at least
// one matching document.
func (c *Corpus) Queries(seed uint64, n, termsPerQuery int) []Query {
	rng := xrand.NewNamed(c.cfg.Seed, fmt.Sprintf("queries:%d", seed))
	if termsPerQuery <= 0 {
		termsPerQuery = 2
	}
	out := make([]Query, 0, n)
	for len(out) < n {
		doc := c.Docs[rng.Intn(len(c.Docs))]
		words := strings.Fields(doc.Text)
		if len(words) < termsPerQuery {
			continue
		}
		start := rng.Intn(len(words) - termsPerQuery + 1)
		terms := words[start : start+termsPerQuery]
		out = append(out, Query{
			Text:  strings.Join(terms, " "),
			Terms: append([]string(nil), terms...),
		})
	}
	return out
}
