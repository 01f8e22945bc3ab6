package index

import (
	"testing"

	"repro/internal/corpus"
)

// corpusRuns builds n encoded runs of 16 corpus documents each, Gens 1…n.
func corpusRuns(n int) ([][]BatchDoc, [][]byte) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 16 * n
	docs := corpus.Generate(cfg).Docs
	batches := make([][]BatchDoc, n)
	runs := make([][]byte, n)
	for r := range batches {
		for _, d := range docs[16*r : 16*(r+1)] {
			batches[r] = append(batches[r], BatchDoc{Doc: DocIDOf(d.URL), Text: d.Text})
		}
		runs[r] = BuildBatch(uint64(r+1), batches[r]).Encode()
	}
	return batches, runs
}

// TestWritePathAllocs is the write path's allocation ratchet: building
// and encoding a batch, and a compaction's merge, allocate per term list
// or per document, never per posting. The analyzer's own allocations
// (a string per token) are measured and allowed; beyond them a build
// may spend half an allocation per term, a four-run merge into one
// shard's run one and a quarter per dictionary entry it walks, and the
// same merge split into every shard's run at once — each entry walked
// once for all eight shards — one and a quarter per entry too. A
// per-posting allocation anywhere — a positions slice, a tombstone
// pass's copy of every list, a restricted copy of every run — breaks
// these bounds several times over: a 16-document corpus batch holds
// about two postings per term.
func TestWritePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates too")
	}
	batches, runs := corpusRuns(4)
	seg := BuildBatch(1, batches[0])
	terms, postings := seg.NumTerms(), 0
	for _, term := range seg.TermsSorted() {
		postings += len(seg.Postings(term))
	}
	analyze := testing.AllocsPerRun(5, func() {
		for _, d := range batches[0] {
			Analyze(d.Text)
		}
	})
	build := testing.AllocsPerRun(5, func() {
		BuildBatch(1, batches[0]).Encode()
	})
	limit := analyze + 0.5*float64(terms)
	t.Logf("BuildBatch+Encode: %.0f allocs (%.0f analyzing) for %d terms, %d postings: bound %.0f", build, analyze, terms, postings, limit)
	if build > limit {
		t.Errorf("BuildBatch+Encode: %.0f allocs exceed the bound %.0f", build, limit)
	}

	// A four-run tiered merge of decoded runs into one shard's run, as
	// compaction writes it.
	lazy := make([]*Segment, len(runs))
	for i, r := range runs {
		var err error
		if lazy[i], err = DecodeSegment(r); err != nil {
			t.Fatal(err)
		}
	}
	merged := MergeShards(lazy, 2, []int{0})[0]
	walked := 0 // dictionary entries the merge steps through
	for _, s := range lazy {
		walked += s.NumTerms()
	}
	merge := testing.AllocsPerRun(5, func() {
		MergeShards(lazy, 2, []int{0})
	})
	limit = 1.25 * float64(walked)
	t.Logf("MergeShards, one shard: %.0f allocs walking %d input terms into %d: bound %.0f", merge, walked, merged.NumTerms(), limit)
	if merge > limit {
		t.Errorf("MergeShards, one shard: %.0f allocs exceed the bound %.0f", merge, limit)
	}

	// The same runs split into all eight shards' runs by one walk, as a
	// level-0 compaction writes them for every shard of a pass.
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	split := testing.AllocsPerRun(5, func() {
		MergeShards(lazy, len(all), all)
	})
	t.Logf("MergeShards, %d shards: %.0f allocs walking %d input terms: bound %.0f", len(all), split, walked, limit)
	if split > limit {
		t.Errorf("MergeShards, %d shards: %.0f allocs exceed the bound %.0f", len(all), split, limit)
	}
}
