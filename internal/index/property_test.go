package index

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// mergeReference is the merge as it was before the k-way kernel, as a
// view: restrict each segment to the terms keep accepts (nil keeps
// all), then apply them oldest first, each one first tombstoning every
// document it covers in the merged lists so far, then unioning in its
// own postings. It shares nothing with the kernel but the encoder and
// the readers, and the kernel must agree with it byte for byte.
func mergeReference(segments []*Segment, keep func(string) bool) *Segment {
	if len(segments) == 1 && keep == nil {
		return segments[0]
	}
	ordered := append([]*Segment(nil), segments...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Gen < ordered[j].Gen })

	gen := uint64(0)
	merged := make(map[string]PostingList)
	docLens := make(map[DocID]uint32)
	for _, seg := range ordered {
		gen = seg.Gen
		terms := termsOf(seg, keep)
		dead := make(map[DocID]bool, len(seg.DocLens))
		for d := range seg.DocLens {
			dead[d] = true
		}
		for term, pl := range merged {
			merged[term] = dropDocs(pl, dead)
		}
		for term, pl := range terms {
			merged[term] = mergePostingLists(merged[term], pl)
		}
		for d, l := range seg.DocLens {
			docLens[d] = l
		}
	}
	return segmentOf(gen, docLens, merged)
}

// termsOf decodes the posting list of every term of seg that keep
// accepts (nil accepts all).
func termsOf(seg *Segment, keep func(string) bool) map[string]PostingList {
	m := make(map[string]PostingList)
	var e dictEntryV3
	for w := (dictWalk{seg.dict, seg.posts}); len(w.dict) > 0; {
		mustRead(w.next(&e, nil))
		if keep == nil || keep(string(e.term)) {
			m[string(e.term)], _ = decodeList(&e, seg.docsSorted, nil, nil)
		}
	}
	return m
}

// mergePostingLists unions two lists; on DocID collision the posting from
// b (the newer segment) wins.
func mergePostingLists(a, b PostingList) PostingList {
	out := make(PostingList, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Doc < b[j].Doc:
			out = append(out, a[i])
			i++
		case a[i].Doc > b[j].Doc:
			out = append(out, b[j])
			j++
		default:
			out = append(out, b[j])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// dropDocs removes postings whose DocID is in the tombstone set.
func dropDocs(pl PostingList, dead map[DocID]bool) PostingList {
	out := pl[:0:0]
	for _, p := range pl {
		if !dead[p.Doc] {
			out = append(out, p)
		}
	}
	return out
}

// randomSegment builds a segment of random small documents.
func randomSegment(rng *xrand.RNG, gen uint64, docBase, nDocs int) *Segment {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta"}
	b := NewBuilder(gen)
	for d := 0; d < nDocs; d++ {
		var text bytes.Buffer
		length := 3 + rng.Intn(10)
		for w := 0; w < length; w++ {
			text.WriteString(words[rng.Intn(len(words))])
			text.WriteByte(' ')
		}
		b.Add(DocID(docBase+d), text.String())
	}
	return b.Build()
}

// Property: merging is associative — Merge([a,b,c]) equals
// Merge([Merge([a,b]), c]) byte-for-byte (distinct generations).
func TestMergeAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		a := randomSegment(rng, 1, 0, 3+rng.Intn(4))
		b := randomSegment(rng, 2, 2, 3+rng.Intn(4)) // overlaps a
		c := randomSegment(rng, 3, 4, 3+rng.Intn(4)) // overlaps b
		direct := Merge([]*Segment{a, b, c}).Encode()
		stepwise := Merge([]*Segment{Merge([]*Segment{a, b}), c}).Encode()
		return bytes.Equal(direct, stepwise)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging a segment with itself is idempotent.
func TestMergeIdempotentProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		s := randomSegment(rng, 5, 0, 4)
		merged := Merge([]*Segment{s, s})
		return bytes.Equal(merged.Encode(), Merge([]*Segment{s}).Encode())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a merged segment always passes DecodeSegment's validation
// and covers exactly the union of the inputs' documents.
func TestMergeValidityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		a := randomSegment(rng, 1, 0, 5)
		b := randomSegment(rng, 2, 3, 5)
		m := Merge([]*Segment{a, b})
		if _, err := DecodeSegment(m.Encode()); err != nil {
			return false
		}
		want := map[DocID]bool{}
		for d := range a.DocLens {
			want[d] = true
		}
		for d := range b.DocLens {
			want[d] = true
		}
		if len(m.DocLens) != len(want) {
			return false
		}
		for d := range want {
			if !m.Covers(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: restricting every run of a chain before merging it — what
// MergeShards does for each shard as compaction merges — is
// byte-identical to restricting the merged chain, and restricting a
// run reads the same off a built view and off its decoding without
// memoizing any list on either. Chains of 1–8 runs mix built and
// decoded runs, republish documents (a small DocID range), repeat Gens,
// and include runs with nothing in the kept shard, at 1 and at 8 shards.
func TestRestrictBeforeMergeProperty(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta",
		"orchard", "meadow", "river", "canyon", "harbor", "summit", "valley"}
	for seed := uint64(0); seed < 200; seed++ {
		rng := xrand.New(seed)
		numShards := 1 + 7*int(seed%2)
		shard := rng.Intn(numShards)
		keep := func(term string) bool { return ShardOf(term, numShards) == shard }
		restrict := func(runs []*Segment) []byte { return MergeShards(runs, numShards, []int{shard})[0].Encode() }
		var outside []string // at 1 shard: none, so such a run has no terms
		for _, w := range words {
			if !keep(Analyze(w)[0].Term) {
				outside = append(outside, w)
			}
		}
		runs := make([]*Segment, 1+rng.Intn(8))
		for i := range runs {
			vocab := words
			if rng.Intn(4) == 0 {
				vocab = outside
			}
			b := NewBuilder(uint64(1 + rng.Intn(4)))
			for d := 0; d < 1+rng.Intn(6); d++ {
				var text bytes.Buffer
				for w := 0; len(vocab) > 0 && w < rng.Intn(12); w++ {
					text.WriteString(vocab[rng.Intn(len(vocab))])
					text.WriteByte(' ')
				}
				b.Add(DocID(1+rng.Intn(16)), text.String())
			}
			built := b.Build()
			decoded, err := DecodeSegment(built.Encode())
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, i, err)
			}
			one := []*Segment{built}
			if !bytes.Equal(restrict([]*Segment{decoded}), restrict(one)) {
				t.Fatalf("seed %d run %d: restricting the decoded run differs from the built one", seed, i)
			}
			if built.lists != nil || decoded.lists != nil {
				t.Fatalf("seed %d run %d: restricting memoized postings on its input", seed, i)
			}
			runs[i] = built
			if rng.Intn(2) == 0 {
				runs[i] = decoded
			}
		}
		first := restrict(runs)
		if after := restrict([]*Segment{Merge(runs)}); !bytes.Equal(first, after) {
			t.Fatalf("seed %d (%d runs, %d shards): merging restricted runs differs from restricting the merge", seed, len(runs), numShards)
		}
	}
}

// checkMergeAgainstReference requires MergeEncode and Merge of the runs
// to encode byte for byte as mergeReference does.
func checkMergeAgainstReference(t *testing.T, what string, runs []*Segment) {
	t.Helper()
	want := mergeReference(runs, nil).Encode()
	if got := Merge(runs).Encode(); !bytes.Equal(got, want) {
		t.Fatalf("%s: Merge differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
	if got := MergeEncode(runs); !bytes.Equal(got, want) {
		t.Fatalf("%s: MergeEncode differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
}

// checkSplitAgainstReference splits the runs' merge into every shard of
// numShards in one walk (MergeShards, shards listed in descending order)
// and requires each shard's run to encode byte for byte as
// mergeReference restricted to the shard does, and as MergeShards for
// that shard alone. It returns how many shards kept no term.
func checkSplitAgainstReference(t *testing.T, what string, runs []*Segment, numShards int) (empty int) {
	t.Helper()
	shards := make([]int, numShards)
	for i := range shards {
		shards[i] = numShards - 1 - i
	}
	split := MergeShards(runs, numShards, shards)
	for i, s := range shards {
		keep := func(term string) bool { return ShardOf(term, numShards) == s }
		want := mergeReference(runs, keep).Encode()
		if got := split[i].Encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s: shard %d/%d of the split differs from the reference (%d vs %d bytes)", what, s, numShards, len(got), len(want))
		}
		if alone := MergeShards(runs, numShards, []int{s})[0].Encode(); !bytes.Equal(alone, want) {
			t.Fatalf("%s: shard %d/%d merged alone differs from the reference (%d vs %d bytes)", what, s, numShards, len(alone), len(want))
		}
		if split[i].NumTerms() == 0 {
			empty++
		}
	}
	return empty
}

// TestMergeKernelMatchesReference: the k-way kernel — through Merge,
// MergeEncode and MergeShards — encodes every chain exactly as the
// tombstone-then-union reference does. 300 chains of 1–8 runs mix built
// and decoded runs, republish documents (a small DocID range), repeat
// Gens and carry postings for documents their own run does not cover;
// each is checked unrestricted and split at 1, 8 and 32 shards, where
// some shards keep no term and get a docs-only run.
func TestMergeKernelMatchesReference(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta",
		"orchard", "meadow", "river", "canyon", "harbor", "summit", "valley"}
	empty := 0
	for seed := uint64(0); seed < 300; seed++ {
		rng := xrand.New(seed)
		runs := make([]*Segment, 1+rng.Intn(8))
		for i := range runs {
			b := NewBuilder(uint64(1 + rng.Intn(4)))
			for d := 0; d < 1+rng.Intn(6); d++ {
				var text bytes.Buffer
				for w := 0; w < rng.Intn(12); w++ {
					text.WriteString(words[rng.Intn(len(words))])
					text.WriteByte(' ')
				}
				b.Add(DocID(1+rng.Intn(16)), text.String())
			}
			built := b.Build()
			if rng.Intn(4) == 0 {
				// Uncover one document: its postings stay, its length goes.
				lens := maps.Clone(built.DocLens)
				delete(lens, sortedDocIDs(lens)[0])
				built = segmentOf(built.Gen, lens, termsOf(built, nil))
			}
			runs[i] = built
			if rng.Intn(2) == 0 {
				decoded, err := DecodeSegment(built.Encode())
				if err != nil {
					t.Fatalf("seed %d run %d: %v", seed, i, err)
				}
				runs[i] = decoded
			}
		}
		checkMergeAgainstReference(t, fmt.Sprintf("seed %d unrestricted", seed), runs)
		for _, numShards := range []int{1, 8, 32} {
			empty += checkSplitAgainstReference(t, fmt.Sprintf("seed %d", seed), runs, numShards)
		}
	}
	if empty == 0 {
		t.Fatal("no shard of any split kept no term: the docs-only run was never checked")
	}
}

// FuzzMerge: for any two runs DecodeSegment accepts and any shard split,
// MergeEncode and Merge of both runs, and every shard's run of
// MergeShards over both runs and over the newer alone, encode exactly as
// the reference does: a restricted run keeps every kept term's postings
// and its whole DocLens and Gen, and a shard that keeps no term gets a
// docs-only run. Every term of each merged view reads through every read
// path (checkReads).
func FuzzMerge(f *testing.F) {
	f.Add(randomDocSegment(11, 2).Encode(), randomDocSegment(12, 2).Encode(), uint8(8), uint8(3))
	f.Add(randomDocSegment(13, 3).Encode(), denseSparseSegment(40).Encode(), uint8(1), uint8(0))
	f.Add(NewSegment(0).Encode(), randomDocSegment(14, 1).Encode(), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, a, b []byte, shards, shard uint8) {
		older, err := DecodeSegment(a)
		if err != nil {
			return
		}
		newer, err := DecodeSegment(b)
		if err != nil {
			return
		}
		n := 1 + int(shards%8)
		runs := []*Segment{older, newer}
		checkMergeAgainstReference(t, "unrestricted", runs)
		checkSplitAgainstReference(t, "split", runs, n)
		checkSplitAgainstReference(t, "one run split", runs[1:], n)
		checkReads(t, "merged", Merge(runs))
		checkReads(t, "merged restricted", MergeShards(runs, n, []int{int(shard) % n})[0])
		checkReads(t, "one run restricted", MergeShards(runs[1:], n, []int{int(shard) % n})[0])
	})
}

// Property: stems are fixed points — analyzing a stemmed term yields the
// same term (so queries always match documents).
func TestStemFixedPointProperty(t *testing.T) {
	words := []string{
		"running", "engines", "searches", "cities", "quickly", "movement",
		"happiness", "relations", "stopped", "believes", "colonies",
		"decentralized", "incentivizes", "advertisers", "computation",
	}
	for _, w := range words {
		s1 := Stem(w)
		s2 := Stem(s1)
		if s1 != s2 {
			t.Errorf("Stem(%q) = %q but Stem(%q) = %q — not a fixed point", w, s1, s1, s2)
		}
		toks := Analyze(s1)
		if len(toks) == 1 && toks[0].Term != s1 {
			t.Errorf("Analyze(%q) = %q — stemmed term does not round-trip", s1, toks[0].Term)
		}
	}
}

// Property: intersection results are always sorted, deduplicated, and a
// subset of every input list.
func TestIntersectionInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		mk := func() []DocID {
			n := rng.Intn(60)
			set := map[uint32]bool{}
			for i := 0; i < n; i++ {
				set[uint32(rng.Intn(80))] = true
			}
			var out []DocID
			for v := uint32(0); v < 80; v++ {
				if set[v] {
					out = append(out, DocID(v))
				}
			}
			return out
		}
		lists := [][]DocID{mk(), mk(), mk()}
		for _, result := range [][]DocID{IntersectMerge(lists), IntersectGallop(lists)} {
			for i := 1; i < len(result); i++ {
				if result[i] <= result[i-1] {
					return false
				}
			}
			for _, v := range result {
				for _, l := range lists {
					found := false
					for _, x := range l {
						if x == v {
							found = true
							break
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinHash similarity is reflexive and symmetric, in [0,1].
func TestMinHashProperties(t *testing.T) {
	f := func(seedA, seedB uint64) bool {
		rngA, rngB := xrand.New(seedA), xrand.New(seedB)
		mk := func(rng *xrand.RNG) MinHashSig {
			var text bytes.Buffer
			for i := 0; i < 20+rng.Intn(30); i++ {
				fmt.Fprintf(&text, "word%d ", rng.Intn(50))
			}
			return SignatureOf(text.String())
		}
		a, b := mk(rngA), mk(rngB)
		if a.Similarity(a) != 1 {
			return false
		}
		ab, ba := a.Similarity(b), b.Similarity(a)
		return ab == ba && ab >= 0 && ab <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
