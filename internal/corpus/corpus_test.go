package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/index"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if len(a.Docs) != len(b.Docs) {
		t.Fatal("sizes differ")
	}
	for i := range a.Docs {
		if a.Docs[i].Text != b.Docs[i].Text {
			t.Fatalf("doc %d text differs", i)
		}
		if strings.Join(a.Docs[i].Links, ",") != strings.Join(b.Docs[i].Links, ",") {
			t.Fatalf("doc %d links differ", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumDocs = 300
	c := Generate(cfg)
	if len(c.Docs) != 300 {
		t.Fatalf("docs = %d", len(c.Docs))
	}
	for i, d := range c.Docs {
		if d.URL != URLOf(i) {
			t.Fatalf("doc %d URL = %q", i, d.URL)
		}
		if d.Title == "" || d.Text == "" {
			t.Fatalf("doc %d empty fields", i)
		}
		words := strings.Fields(d.Text)
		if len(words) < cfg.MeanDocLen/3 {
			t.Fatalf("doc %d too short: %d", i, len(words))
		}
		for _, l := range d.Links {
			if l == d.URL {
				t.Fatalf("doc %d links to itself", i)
			}
		}
	}
}

func TestVocabularyIsZipfSkewed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumDocs = 400
	c := Generate(cfg)
	counts := map[string]int{}
	for _, d := range c.Docs {
		for _, w := range strings.Fields(d.Text) {
			counts[w]++
		}
	}
	top := counts[c.Vocab(0)]
	mid := counts[c.Vocab(100)]
	if top <= mid*2 {
		t.Fatalf("vocabulary not skewed: top=%d mid=%d", top, mid)
	}
}

func TestLinkGraphInDegreeSkew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumDocs = 500
	c := Generate(cfg)
	in := map[string]int{}
	total := 0
	for _, d := range c.Docs {
		for _, l := range d.Links {
			in[l]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no links generated")
	}
	// Preferential attachment: max in-degree far above mean.
	maxIn := 0
	for _, v := range in {
		if v > maxIn {
			maxIn = v
		}
	}
	mean := float64(total) / float64(cfg.NumDocs)
	if float64(maxIn) < 4*mean {
		t.Fatalf("in-degree not skewed: max=%d mean=%.1f", maxIn, mean)
	}
}

func TestVocabWordsSurviveAnalysis(t *testing.T) {
	c := Generate(DefaultConfig())
	// Generated words must not be stop words and must analyze to
	// themselves or a stable stem (so queries match documents).
	for i := 0; i < 50; i++ {
		w := c.Vocab(i)
		if index.IsStopword(w) {
			t.Fatalf("vocab word %q is a stopword", w)
		}
		toks := index.Analyze(w)
		if len(toks) != 1 {
			t.Fatalf("vocab word %q analyzed to %v", w, toks)
		}
	}
}

func TestRevise(t *testing.T) {
	c := Generate(DefaultConfig())
	rev1 := c.Revise(5, 1, 0.3)
	rev1b := c.Revise(5, 1, 0.3)
	if rev1.Text != rev1b.Text {
		t.Fatal("revision not deterministic")
	}
	if rev1.Text == c.Docs[5].Text {
		t.Fatal("revision did not change the text")
	}
	if rev1.URL != c.Docs[5].URL {
		t.Fatal("revision changed URL")
	}
	rev2 := c.Revise(5, 2, 0.3)
	if rev2.Text == rev1.Text {
		t.Fatal("different revisions should differ")
	}
	// Zero fraction: no change.
	same := c.Revise(5, 3, 0)
	if same.Text != c.Docs[5].Text {
		t.Fatal("zero-fraction revision should be identical")
	}
}

func TestQueriesHaveMatches(t *testing.T) {
	c := Generate(DefaultConfig())
	queries := c.Queries(7, 20, 2)
	if len(queries) != 20 {
		t.Fatalf("queries = %d", len(queries))
	}
	for _, q := range queries {
		if len(q.Terms) != 2 {
			t.Fatalf("query terms = %v", q.Terms)
		}
		// The query was sampled from some document; at least one doc
		// must contain both terms.
		found := false
		for _, d := range c.Docs {
			if strings.Contains(d.Text, q.Terms[0]) && strings.Contains(d.Text, q.Terms[1]) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("query %q has no matching doc", q.Text)
		}
	}
}

func TestQueriesDeterministic(t *testing.T) {
	c := Generate(DefaultConfig())
	a := c.Queries(1, 5, 3)
	b := c.Queries(1, 5, 3)
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatal("queries not deterministic")
		}
	}
	other := c.Queries(2, 5, 3)
	diff := false
	for i := range a {
		if a[i].Text != other[i].Text {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds should give different queries")
	}
}

// hashCorpus collapses every document — URL, title, text, links — into
// one digest, so scale tests compare whole corpora cheaply.
func hashCorpus(c *Corpus) string {
	h := sha256.New()
	for _, d := range c.Docs {
		h.Write([]byte(d.URL))
		h.Write([]byte{0})
		h.Write([]byte(d.Title))
		h.Write([]byte{0})
		h.Write([]byte(d.Text))
		h.Write([]byte{0})
		for _, l := range d.Links {
			h.Write([]byte(l))
			h.Write([]byte{1})
		}
		h.Write([]byte{2})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDeterministicAtScale is the crawler pipeline's supply
// contract: at 10^4+ documents, two same-seed generations are
// byte-identical (streaming ingest experiments regenerate the corpus
// per configuration and rely on it), the Zipf vocabulary skew holds,
// and the link graph keeps its preferential-attachment shape. -short
// drops a decade so CI stays fast.
func TestGenerateDeterministicAtScale(t *testing.T) {
	numDocs := 10_000
	if testing.Short() {
		numDocs = 1_000
	}
	cfg := Config{Seed: 42, NumDocs: numDocs, VocabSize: 5000, ZipfS: 1.0, MeanDocLen: 30, MeanLinks: 3}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Docs) != numDocs {
		t.Fatalf("docs = %d", len(a.Docs))
	}
	if ha, hb := hashCorpus(a), hashCorpus(b); ha != hb {
		t.Fatalf("same-seed corpora diverged at %d docs: %s vs %s", numDocs, ha, hb)
	}
	other := cfg
	other.Seed = 43
	if hashCorpus(Generate(other)) == hashCorpus(a) {
		t.Fatal("different seeds produced identical corpora")
	}

	// Zipf skew survives scale: the top word dwarfs a mid-rank word.
	counts := map[string]int{}
	for _, d := range a.Docs {
		for _, w := range strings.Fields(d.Text) {
			counts[w]++
		}
	}
	if top, mid := counts[a.Vocab(0)], counts[a.Vocab(200)]; top <= mid*4 {
		t.Fatalf("vocabulary skew collapsed at scale: top=%d mid=%d", top, mid)
	}

	// Link-graph shape: links only point at earlier documents (the
	// generator's DAG invariant — the crawl frontier can rely on it),
	// in-degree stays heavy-tailed, and the graph is link-complete.
	in := map[string]int{}
	total := 0
	for i, d := range a.Docs {
		for _, l := range d.Links {
			var target int
			if _, err := fmt.Sscanf(l, "dweb://wiki/page-%d", &target); err != nil {
				t.Fatalf("doc %d: unparseable link %q", i, l)
			}
			if target >= i {
				t.Fatalf("doc %d links forward to %d: not a DAG", i, target)
			}
			in[l]++
			total++
		}
	}
	if total < numDocs {
		t.Fatalf("suspiciously few links: %d for %d docs", total, numDocs)
	}
	maxIn := 0
	for _, v := range in {
		if v > maxIn {
			maxIn = v
		}
	}
	if mean := float64(total) / float64(numDocs); float64(maxIn) < 8*mean {
		t.Fatalf("in-degree tail too flat at scale: max=%d mean=%.1f", maxIn, mean)
	}
}

// TestGeneratePinned pins whole corpora, links included, to digests
// recorded when every link draw scanned a fresh weight slice: the
// preferential-attachment draw may change how it finds its target, never
// which target one Float64 picks.
func TestGeneratePinned(t *testing.T) {
	atScale := Config{Seed: 42, NumDocs: 10_000, VocabSize: 5000, ZipfS: 1.0, MeanDocLen: 30, MeanLinks: 3}
	def10k, def1k := DefaultConfig(), DefaultConfig()
	def10k.NumDocs, def1k.NumDocs = 10_000, 1_000
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"atScale", atScale, "36e0235ee0600e3afa4318d1e8c89e612ed41605f8a7688f45811a2287f28548"},
		{"default10k", def10k, "9fd19bf07975923ae7d460416f989a66ecb91b3681abd0f9cb91caf1d4bfc1aa"},
		{"default1k", def1k, "6475b8053d98d4c3e584064910186847a17f7e0ec795915bd14eb1215fb11ab7"},
	} {
		if got := hashCorpus(Generate(tc.cfg)); got != tc.want {
			t.Errorf("%s: corpus digest %s, recorded %s", tc.name, got, tc.want)
		}
	}
}

func TestLinkGraphComplete(t *testing.T) {
	c := Generate(DefaultConfig())
	g := c.LinkGraph()
	if len(g) != len(c.Docs) {
		t.Fatalf("graph nodes = %d, want %d", len(g), len(c.Docs))
	}
}
