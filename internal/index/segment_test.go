package index

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func buildSeg(gen uint64, docs map[DocID]string) *Segment {
	b := NewBuilder(gen)
	// Deterministic insertion order.
	var ids []DocID
	for id := range docs {
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		b.Add(id, docs[id])
	}
	return b.Build()
}

// segmentOf encodes hand-made postings — lists a Builder would never
// write, for documents DocLens does not cover, say — and opens the view.
// Empty lists are left out.
func segmentOf(gen uint64, docLens map[DocID]uint32, terms map[string]PostingList) *Segment {
	w := newV3Writer(docLens, sortedDocIDs(docLens))
	for _, term := range slices.Sorted(maps.Keys(terms)) {
		if len(terms[term]) > 0 {
			w.addTerm(term, terms[term])
		}
	}
	return openWritten(w.finish(gen))
}

func TestBuilderBasic(t *testing.T) {
	seg := buildSeg(1, map[DocID]string{
		1: "decentralized search engine",
		2: "decentralized web content",
	})
	pl := seg.Postings(Stem("decentralized"))
	if len(pl) != 2 || pl[0].Doc != 1 || pl[1].Doc != 2 {
		t.Fatalf("postings = %+v", pl)
	}
	if seg.DocLens[1] != 3 || seg.DocLens[2] != 3 {
		t.Fatalf("doc lens = %v", seg.DocLens)
	}
	if _, err := DecodeSegment(seg.Encode()); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderTermFrequencyAndPositions(t *testing.T) {
	seg := buildSeg(1, map[DocID]string{7: "bee bee honey bee"})
	pl := seg.Postings("bee")
	if len(pl) != 1 {
		t.Fatalf("postings = %+v", pl)
	}
	p := pl[0]
	if p.TF != 3 {
		t.Fatalf("TF = %d, want 3", p.TF)
	}
	if len(p.Positions) != 3 || p.Positions[0] != 0 || p.Positions[1] != 1 || p.Positions[2] != 3 {
		t.Fatalf("positions = %v", p.Positions)
	}
}

func TestBuilderReAddReplacesDoc(t *testing.T) {
	b := NewBuilder(1)
	b.Add(5, "old content about bees")
	b.Add(5, "completely new stuff")
	seg := b.Build()
	if seg.Postings("bee") != nil {
		t.Fatal("stale postings survived re-add")
	}
	if seg.Postings("stuff") == nil {
		t.Fatal("new postings missing")
	}
	if b2 := seg.DocLens[5]; b2 != 3 {
		t.Fatalf("doc len = %d, want 3", b2)
	}
}

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	seg := buildSeg(42, map[DocID]string{
		1: "queen bee honey colony worker bee",
		9: "smart contract blockchain honey",
		3: "decentralized search on the decentralized web",
	})
	enc := seg.Encode()
	dec, err := DecodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gen != 42 {
		t.Fatalf("gen = %d", dec.Gen)
	}
	if dec.NumTerms() != seg.NumTerms() {
		t.Fatalf("terms = %d, want %d", dec.NumTerms(), seg.NumTerms())
	}
	for _, term := range seg.TermsSorted() {
		pl, got := seg.Postings(term), dec.Postings(term)
		if len(got) != len(pl) {
			t.Fatalf("term %q postings = %d, want %d", term, len(got), len(pl))
		}
		for i := range pl {
			if got[i].Doc != pl[i].Doc || got[i].TF != pl[i].TF {
				t.Fatalf("term %q posting %d mismatch", term, i)
			}
		}
	}
}

func TestSegmentEncodeDeterministic(t *testing.T) {
	// Two builders adding the same docs in different orders must produce
	// byte-identical encodings — commit-reveal voting depends on it.
	a := NewBuilder(7)
	a.Add(1, "alpha beta gamma")
	a.Add(2, "beta delta")
	b := NewBuilder(7)
	b.Add(2, "beta delta")
	b.Add(1, "alpha beta gamma")
	if !bytes.Equal(a.Build().Encode(), b.Build().Encode()) {
		t.Fatal("segment encoding depends on insertion order")
	}
}

func TestDecodeSegmentCorrupt(t *testing.T) {
	if _, err := DecodeSegment(nil); err == nil {
		t.Fatal("nil should fail")
	}
	if _, err := DecodeSegment([]byte{0xFF, 0xFF, 0x01}); err == nil {
		t.Fatal("bad magic should fail")
	}
	seg := buildSeg(1, map[DocID]string{1: "hello world"})
	enc := seg.Encode()
	// The retired v1/v2 magics must fail loudly, not be guessed at — even
	// in front of an otherwise valid body.
	for _, magic := range []uint64{0x5153, 0x5154} {
		if _, err := DecodeSegment(retagged(enc, magic)); err == nil {
			t.Fatalf("retired magic %#x should fail", magic)
		}
	}
	if _, err := DecodeSegment(enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated segment should fail")
	}
}

// retagged returns enc with its leading magic varint replaced.
func retagged(enc []byte, magic uint64) []byte {
	_, n := binary.Uvarint(enc)
	return append(binary.AppendUvarint(nil, magic), enc[n:]...)
}

func TestMergeNewerGenerationWins(t *testing.T) {
	old := buildSeg(1, map[DocID]string{1: "honey bees everywhere", 2: "old other doc"})
	new1 := buildSeg(2, map[DocID]string{1: "fresh content no insects"})
	merged := Merge([]*Segment{old, new1})

	// Doc 1's old terms must be tombstoned even though gen 2 lacks them.
	if pl := merged.Postings(Stem("honey")); pl != nil {
		if _, found := pl.Find(1); found {
			t.Fatal("stale posting for doc 1 survived merge")
		}
	}
	if pl := merged.Postings("bee"); pl != nil {
		if _, found := pl.Find(1); found {
			t.Fatal("stale 'bee' posting survived")
		}
	}
	if merged.Postings("fresh") == nil {
		t.Fatal("new postings missing")
	}
	// Doc 2 untouched.
	if merged.Postings("old") == nil {
		t.Fatal("unrelated doc lost in merge")
	}
	if _, err := DecodeSegment(merged.Encode()); err != nil {
		t.Fatal(err)
	}
}

func TestMergeOrderIndependence(t *testing.T) {
	s1 := buildSeg(1, map[DocID]string{1: "one two three"})
	s2 := buildSeg(2, map[DocID]string{2: "two three four"})
	s3 := buildSeg(3, map[DocID]string{1: "five six"})
	a := Merge([]*Segment{s1, s2, s3}).Encode()
	b := Merge([]*Segment{s3, s1, s2}).Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("merge result depends on input order despite distinct gens")
	}
}

func TestMergeEmpty(t *testing.T) {
	m := Merge(nil)
	if m.NumTerms() != 0 || m.Gen != 0 {
		t.Fatalf("merge of nothing = %+v", m)
	}
}

// roundTripPostings sends one posting list through the segment codec —
// the only encoding posting lists have — as a single-term segment. A
// term in every covered doc takes the bitmap encoding; sparse pads the
// segment with more than 8 other covered docs per posting, which keeps
// the term below the bitmap threshold so delta gaps carry it.
func roundTripPostings(pl PostingList, sparse bool) (PostingList, error) {
	docLens := make(map[DocID]uint32)
	for _, p := range pl {
		docLens[p.Doc] = p.TF
	}
	for d := DocID(0); sparse && len(docLens) <= 9*len(pl); d++ {
		if _, ok := docLens[d]; !ok {
			docLens[d] = 1
		}
	}
	dec, err := DecodeSegment(segmentOf(1, docLens, map[string]PostingList{"t": pl}).Encode())
	if err != nil {
		return nil, err
	}
	return dec.Postings("t"), nil
}

func TestPostingsEncodeDecodeRoundTrip(t *testing.T) {
	pl := PostingList{
		{Doc: 3, TF: 2, Positions: []uint32{0, 9}},
		{Doc: 100, TF: 1, Positions: []uint32{4}},
		{Doc: 4000000, TF: 3, Positions: []uint32{1, 2, 3}},
	}
	for _, sparse := range []bool{false, true} {
		dec, err := roundTripPostings(pl, sparse)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != 3 || dec[2].Doc != 4000000 || dec[0].Positions[1] != 9 {
			t.Fatalf("sparse=%v decoded = %+v", sparse, dec)
		}
	}
}

func TestPostingsRoundTripProperty(t *testing.T) {
	f := func(docsRaw []uint32, tfRaw []uint8) bool {
		// Build a valid sorted posting list from arbitrary input.
		seen := map[uint32]bool{}
		var docs []uint32
		for _, d := range docsRaw {
			if !seen[d] {
				seen[d] = true
				docs = append(docs, d)
			}
		}
		for i := 0; i < len(docs); i++ {
			for j := i + 1; j < len(docs); j++ {
				if docs[j] < docs[i] {
					docs[i], docs[j] = docs[j], docs[i]
				}
			}
		}
		var pl PostingList
		for i, d := range docs {
			tf := uint32(1)
			if i < len(tfRaw) {
				tf = uint32(tfRaw[i]%5) + 1
			}
			positions := make([]uint32, tf)
			for p := range positions {
				positions[p] = uint32(p * 2)
			}
			pl = append(pl, Posting{Doc: DocID(d), TF: tf, Positions: positions})
		}
		for _, sparse := range []bool{false, true} {
			dec, err := roundTripPostings(pl, sparse)
			if err != nil || len(dec) != len(pl) {
				return false
			}
			for i := range pl {
				if dec[i].Doc != pl[i].Doc || dec[i].TF != pl[i].TF {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFindBinarySearch(t *testing.T) {
	pl := PostingList{{Doc: 2}, {Doc: 5}, {Doc: 9}}
	if _, ok := pl.Find(5); !ok {
		t.Fatal("Find(5) should succeed")
	}
	if _, ok := pl.Find(4); ok {
		t.Fatal("Find(4) should fail")
	}
}

// TestSegmentRestrict covers the sharded-compaction primitive, a
// shard's run from MergeShards: dropped terms vanish, kept terms keep
// their postings, and — the subtle part — the full DocLens tombstone set
// survives, so a restricted segment still shadows a document's older
// postings for terms the restriction dropped.
func TestSegmentRestrict(t *testing.T) {
	old := buildSeg(1, map[DocID]string{
		1: "honey nectar clover",
		2: "honey meadow",
	})
	// Doc 1 revised: "nectar" gone, new term appears.
	rev := buildSeg(2, map[DocID]string{1: "honey orchard"})

	// A shard split that puts "honey" and "orchard" apart.
	numShards := 2
	for ShardOf(Stem("honey"), numShards) == ShardOf(Stem("orchard"), numShards) {
		numShards++
	}
	honeyShard := ShardOf(Stem("honey"), numShards)
	r, err := DecodeSegment(MergeShards([]*Segment{rev}, numShards, []int{honeyShard})[0].Encode())
	if err != nil {
		t.Fatal(err)
	}
	if r.Gen != rev.Gen {
		t.Fatalf("restrict changed Gen: %d -> %d", rev.Gen, r.Gen)
	}
	if r.Postings(Stem("orchard")) != nil {
		t.Fatal("restricted segment kept a dropped term")
	}
	if got := r.Postings(Stem("honey")); len(got) != 1 || got[0].Doc != 1 {
		t.Fatalf("kept term postings = %+v", got)
	}
	if r.NumTerms() != 1 || !r.Covers(1) {
		t.Fatalf("restricted segment = %d terms, covers(1)=%v", r.NumTerms(), r.Covers(1))
	}

	// Merging the OLD full segment with the restricted revision must
	// still retire doc 1's stale "nectar" posting — same logical outcome
	// as merging with the unrestricted revision, for every kept term.
	m := Merge([]*Segment{old, r})
	if pl := m.Postings(Stem("nectar")); len(pl) != 0 {
		t.Fatalf("stale posting resurfaced through a restricted merge: %+v", pl)
	}
	want := Merge([]*Segment{old, rev})
	for _, term := range []string{Stem("honey"), Stem("meadow"), Stem("clover")} {
		a, b := m.Postings(term), want.Postings(term)
		if len(a) != len(b) {
			t.Fatalf("term %q diverged: %+v vs %+v", term, a, b)
		}
		for i := range a {
			if a[i].Doc != b[i].Doc || a[i].TF != b[i].TF {
				t.Fatalf("term %q posting %d diverged: %+v vs %+v", term, i, a, b)
			}
		}
	}
}

func TestIsDigestMatchesDigestOf(t *testing.T) {
	dg := DigestOf([]byte("segment bytes"))
	if !IsDigest(dg) {
		t.Fatalf("DigestOf output %q rejected", dg)
	}
	for _, bad := range []string{"", "x", dg[:63], dg + "0", strings.ToUpper(dg), "g" + dg[1:]} {
		if IsDigest(bad) {
			t.Fatalf("IsDigest(%q) = true", bad)
		}
	}
}
