package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// TestSegmentV3RoundTripProperty: for random segments, v3 encode → decode
// → re-encode is byte-identical, the lazy decoding agrees logically with
// the built segment, and Validate passes.
func TestSegmentV3RoundTripProperty(t *testing.T) {
	f := func(seed uint16, genRaw uint8) bool {
		seg := randomDocSegment(uint64(seed), uint64(genRaw))

		enc := seg.Encode()
		magic, _ := binary.Uvarint(enc)
		if magic != segmentMagic {
			t.Logf("Encode emitted magic %#x, want v3", magic)
			return false
		}
		dec, err := DecodeSegment(enc)
		if err != nil {
			t.Logf("decode v3: %v", err)
			return false
		}
		if dec.lazy == nil {
			t.Log("v3 bytes did not decode into a lazy segment")
			return false
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Log("v3 decode → encode not byte-identical")
			return false
		}
		if !bytes.Equal(seg.Encode(), enc) {
			t.Log("v3 encode not deterministic across calls")
			return false
		}
		segmentsLogicallyEqual(t, seg, dec)
		if err := dec.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// denseSparseSegment builds a segment with one dense term ("dense", in
// every doc → bitmap-encoded) and one sparse term ("rare", in one doc →
// delta-encoded), big enough to span multiple 32-posting blocks.
func denseSparseSegment(ndocs int) *Segment {
	seg := NewSegment(5)
	dense := Stem("dense")
	rare := Stem("rare")
	var dpl PostingList
	for i := 0; i < ndocs; i++ {
		doc := DocID(10 + 3*i) // gaps > 1 so bitmap ordinals matter
		seg.DocLens[doc] = uint32(5 + i%7)
		dpl = append(dpl, Posting{Doc: doc, TF: uint32(1 + i%4), Positions: []uint32{uint32(i)}})
	}
	seg.Terms[dense] = dpl
	seg.Terms[rare] = PostingList{{Doc: dpl[ndocs/2].Doc, TF: 2, Positions: []uint32{1, 9}}}
	return seg
}

// TestSegmentV3BitmapThreshold: a term covering every doc must take the
// bitmap encoding, a singleton term the delta encoding, and both must
// round-trip with positions intact.
func TestSegmentV3BitmapThreshold(t *testing.T) {
	seg := denseSparseSegment(100)
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	eDense, _, found, err := dec.lazy.findV3(Stem("dense"))
	if err != nil || !found {
		t.Fatalf("findV3 dense: found=%v err=%v", found, err)
	}
	if eDense.enc != 1 {
		t.Fatalf("dense term enc = %d, want bitmap (1)", eDense.enc)
	}
	if eDense.df != 100 {
		t.Fatalf("dense df = %d, want 100", eDense.df)
	}
	eRare, _, found, err := dec.lazy.findV3(Stem("rare"))
	if err != nil || !found {
		t.Fatalf("findV3 rare: found=%v err=%v", found, err)
	}
	if eRare.enc != 0 {
		t.Fatalf("rare term enc = %d, want delta (0)", eRare.enc)
	}
	segmentsLogicallyEqual(t, seg, dec)
}

// TestSegmentV3SkipEntriesMatchBlocks: the parsed skip entries must agree
// with the posting list they summarize — per-block last DocID and an
// exact frontier max (the bound equals the true block-max TermScore).
func TestSegmentV3SkipEntriesMatchBlocks(t *testing.T) {
	seg := denseSparseSegment(100)
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScorer(CorpusStats{DocCount: 100, AvgDocLen: 8}, 0)
	for _, term := range []string{Stem("dense"), Stem("rare")} {
		e, _, found, err := dec.lazy.findV3(term)
		if err != nil || !found {
			t.Fatalf("findV3 %q: found=%v err=%v", term, found, err)
		}
		skips, err := parseSkipsV3(e.skipsRaw, e.df)
		if err != nil {
			t.Fatal(err)
		}
		pl := seg.Terms[term]
		wantBlocks := (len(pl) + postingsBlockSize - 1) / postingsBlockSize
		if len(skips) != wantBlocks {
			t.Fatalf("%q: %d skip entries, want %d", term, len(skips), wantBlocks)
		}
		for bi, sk := range skips {
			lo := bi * postingsBlockSize
			hi := lo + v3BlockLen(bi, len(pl))
			if sk.LastDoc != pl[hi-1].Doc {
				t.Fatalf("%q block %d lastDoc = %d, want %d", term, bi, sk.LastDoc, pl[hi-1].Doc)
			}
			trueMax := 0.0
			for _, p := range pl[lo:hi] {
				if v := sc.TermScore(p.TF, seg.DocLens[p.Doc], len(pl)); v > trueMax {
					trueMax = v
				}
			}
			boundMax := 0.0
			for _, fp := range sk.Frontier {
				if v := sc.TermScore(fp.TF, fp.DL, len(pl)); v > boundMax {
					boundMax = v
				}
			}
			if boundMax != trueMax {
				t.Fatalf("%q block %d bound %v != true max %v", term, bi, boundMax, trueMax)
			}
		}
	}
}

// TestV3DecodeRejectsTruncation: every proper prefix of a v3 encoding
// must fail decode with an error, never panic — truncated skip entries,
// cut-off bitmaps and half postings blobs included.
func TestV3DecodeRejectsTruncation(t *testing.T) {
	enc := denseSparseSegment(50).Encode()
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeSegment(enc[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(enc))
		}
	}
}

// TestV3DecodeRejectsLyingSkips: tampering with skip metadata — the
// block-max frontier, the last-DocID chain, the end offsets — must fail
// the whole decode. A frontend must never serve a segment whose bounds
// could skip blocks that contain winners. The dict/posts subslices alias
// the encoded buffer, so the test locates fields through the decoded
// segment and mutates the raw bytes in place.
func TestV3DecodeRejectsLyingSkips(t *testing.T) {
	mutants := []struct {
		name string
		at   func(l *lazySegment) int // offset within l.dict
	}{
		// Entry layout after the term: enc, df, blobLen, then skips:
		// lastDocGap, endOffGap, npairs, npairs×(tf, dl). The first term of
		// denseSparseSegment is "dense": 100 docs, small single-byte varints
		// throughout, so field offsets are stable byte positions.
		{"frontier TF", func(l *lazySegment) int {
			e, _, _, _ := l.findV3(Stem("dense"))
			return dictOffsetOf(l, e.skipsRaw) + 3 // skip gap, eo, npairs
		}},
		{"lastDoc gap", func(l *lazySegment) int {
			e, _, _, _ := l.findV3(Stem("dense"))
			return dictOffsetOf(l, e.skipsRaw)
		}},
		{"end offset", func(l *lazySegment) int {
			e, _, _, _ := l.findV3(Stem("dense"))
			return dictOffsetOf(l, e.skipsRaw) + 1
		}},
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			enc := denseSparseSegment(100).Encode()
			dec, err := DecodeSegment(enc)
			if err != nil {
				t.Fatal(err)
			}
			off := m.at(dec.lazy)
			tampered := append([]byte(nil), enc...)
			dictStart := bytes.Index(tampered, dec.lazy.dict)
			if dictStart < 0 {
				t.Fatal("dict region not found in encoding")
			}
			tampered[dictStart+off]++
			if _, err := DecodeSegment(tampered); err == nil {
				t.Fatalf("tampered %s decoded without error", m.name)
			}
		})
	}
}

// dictOffsetOf returns raw's offset within l.dict (raw aliases it).
func dictOffsetOf(l *lazySegment, raw []byte) int {
	off := bytes.Index(l.dict, raw)
	if off < 0 {
		panic("skipsRaw does not alias dict")
	}
	return off
}

// TestV3DecodeRejectsBadBitmap: corrupting a bitmap term's blob — length
// prefix, set bits beyond the doc count, or a popcount that disagrees
// with df — must fail decode.
func TestV3DecodeRejectsBadBitmap(t *testing.T) {
	seg := denseSparseSegment(100)
	enc := seg.Encode()
	dec, err := DecodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	_, blob, found, err := dec.lazy.findV3(Stem("dense"))
	if err != nil || !found {
		t.Fatal("dense term not found")
	}
	blobStart := bytes.Index(enc, blob)
	if blobStart < 0 {
		t.Fatal("blob not found in encoding")
	}
	bmLen, n := binary.Uvarint(blob)

	t.Run("length prefix", func(t *testing.T) {
		tampered := append([]byte(nil), enc...)
		tampered[blobStart]++ // bmLen no longer matches ceil(ndocs/8)
		if _, err := DecodeSegment(tampered); err == nil {
			t.Fatal("bad bitmap length decoded without error")
		}
	})
	t.Run("extra set bit", func(t *testing.T) {
		tampered := append([]byte(nil), enc...)
		// Flipping any bitmap bit breaks the popcount-vs-df cross-check
		// (set → clear) or sets a bit for a doc the stream does not carry.
		tampered[blobStart+n] ^= 0xFF
		if _, err := DecodeSegment(tampered); err == nil {
			t.Fatal("tampered bitmap decoded without error")
		}
	})
	t.Run("trailing bits", func(t *testing.T) {
		tampered := append([]byte(nil), enc...)
		// 100 docs → 4 unused bits at the end of the 13-byte bitmap.
		tampered[blobStart+n+int(bmLen)-1] |= 0x80
		if _, err := DecodeSegment(tampered); err == nil {
			t.Fatal("trailing bitmap bits decoded without error")
		}
	})
}

// TestV3HostileCounts: a tiny segment claiming absurd term/block counts
// must be rejected with an error, not panic on a count-sized allocation.
func TestV3HostileCounts(t *testing.T) {
	hostile := binary.AppendUvarint(nil, segmentMagic)
	hostile = binary.AppendUvarint(hostile, 1)     // gen
	hostile = binary.AppendUvarint(hostile, 0)     // ndocs
	hostile = binary.AppendUvarint(hostile, 1<<62) // nterms
	hostile = binary.AppendUvarint(hostile, 1<<62) // nblocks
	if _, err := DecodeSegment(hostile); err == nil {
		t.Fatal("hostile counts should fail decode")
	}
}

// TestV3ByteFlipNeverPanics: flipping every byte of a valid v3 encoding
// must yield either a clean decode error or a segment whose reads do not
// panic. Complements FuzzDecodeSegment with exhaustive single-byte
// coverage of a real segment.
func TestV3ByteFlipNeverPanics(t *testing.T) {
	enc := denseSparseSegment(40).Encode()
	for i := 0; i < len(enc); i++ {
		for _, delta := range []byte{1, 0x80} {
			tampered := append([]byte(nil), enc...)
			tampered[i] += delta
			seg, err := DecodeSegment(tampered)
			if err != nil {
				continue
			}
			_ = seg.Validate()
			for _, term := range seg.TermsSorted() {
				_ = seg.Postings(term)
			}
		}
	}
}

// TestCursorMatchesPostings: walking a cursor with SeekTF over every doc
// of the posting list reproduces the list's TFs exactly, for both lazy v3
// cursors and cursors derived from materialized lists.
func TestCursorMatchesPostings(t *testing.T) {
	f := func(seed uint16) bool {
		seg := randomDocSegment(uint64(seed), 1)
		dec, err := DecodeSegment(seg.Encode())
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		for _, src := range []*Segment{seg, dec} {
			for _, term := range src.TermsSorted() {
				pl := src.Postings(term)
				cur := src.Cursor(term)
				if cur == nil {
					t.Logf("nil cursor for present term %q", term)
					return false
				}
				if cur.DF() != len(pl) {
					t.Logf("%q df = %d, want %d", term, cur.DF(), len(pl))
					return false
				}
				for _, p := range pl {
					tf, ok := cur.SeekTF(p.Doc)
					if !ok || tf != p.TF {
						t.Logf("%q doc %d: tf=%d ok=%v, want %d", term, p.Doc, tf, ok, p.TF)
						return false
					}
				}
			}
			if cur := src.Cursor("zzz-absent"); cur != nil {
				t.Log("cursor for absent term")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCursorIndependence: two cursors over the same term do not share
// position state — an exhausted cursor leaves a fresh one untouched.
func TestCursorIndependence(t *testing.T) {
	seg := denseSparseSegment(100)
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	a := dec.Cursor(Stem("dense"))
	a.ShallowSeek(1 << 31) // exhaust
	if !a.Exhausted() {
		t.Fatal("cursor not exhausted")
	}
	b := dec.Cursor(Stem("dense"))
	if b.Exhausted() {
		t.Fatal("fresh cursor inherited exhaustion")
	}
	if tf, ok := b.SeekTF(10); !ok || tf != 1 {
		t.Fatalf("fresh cursor SeekTF = %d, %v", tf, ok)
	}
}

// exhaustiveTopK is the reference scorer the WAND executor must match
// byte for byte: probe every (candidate, term) pair with Find in the
// term's own segment (segs aligned with terms), score it with that
// segment's length for the doc, sum text scores in term order, blend
// rank, TopK.
func exhaustiveTopK(cands []DocID, terms []string, segs []*Segment, sc *Scorer, ranks map[DocID]float64, maxRank float64, k int) []ScoredDoc {
	scored := make([]ScoredDoc, 0, len(cands))
	for _, d := range cands {
		text := 0.0
		for i, term := range terms {
			pl := segs[i].Postings(term)
			if p, ok := pl.Find(d); ok {
				text += sc.TermScore(p.TF, segs[i].DocLens[d], len(pl))
			}
		}
		scored = append(scored, ScoredDoc{Doc: d, Score: sc.Combine(text, ranks[d], maxRank)})
	}
	return TopK(scored, k)
}

// noDocLen is the executors' length fallback in tests whose segments
// record a length for every posting: each term must score with its own
// segment's lengths, so the fallback is never consulted.
func noDocLen(t *testing.T) func(DocID) uint32 {
	return func(d DocID) uint32 {
		t.Errorf("doc %d scored without its segment's length", d)
		return 0
	}
}

// TestWANDMatchesExhaustiveProperty: across random segments, term
// subsets, k values and rank weights (including 0 and extreme), WANDTopK
// must return exactly what exhaustive scoring returns — same docs, same
// scores, same order. With split set, every other term reads a second
// segment holding the same postings under different doc lengths, as two
// shards do while they disagree on a republished page: each term scores
// with its own segment's lengths.
func TestWANDMatchesExhaustiveProperty(t *testing.T) {
	f := func(seed uint16, kRaw uint8, rwRaw uint8, split bool) bool {
		rng := xrand.New(uint64(seed) + 3)
		seg := randomDocSegment(uint64(seed), 1)
		dec, err := DecodeSegment(seg.Encode())
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		alt := NewSegment(2)
		for term, pl := range seg.Terms {
			alt.Terms[term] = pl
		}
		for _, d := range sortedDocIDs(seg.DocLens) {
			alt.DocLens[d] = 2*seg.DocLens[d] + uint32(rng.Intn(5))
		}
		altDec, err := DecodeSegment(alt.Encode())
		if err != nil {
			t.Logf("decode alt: %v", err)
			return false
		}
		all := dec.TermsSorted()
		nterms := 1 + rng.Intn(4)
		if nterms > len(all) {
			nterms = len(all)
		}
		terms := make([]string, 0, nterms+1)
		for i := 0; i < nterms; i++ {
			terms = append(terms, all[rng.Intn(len(all))])
		}
		terms = append(terms, "zz-absent") // absent terms must be tolerated
		built := make([]*Segment, len(terms))
		cursors := make([]*TermCursor, len(terms))
		for i, term := range terms {
			built[i], cursors[i] = seg, dec.Cursor(term)
			if split && i%2 == 1 {
				built[i], cursors[i] = alt, altDec.Cursor(term)
			}
		}

		// Candidates: union of the chosen terms' docs (ascending, unique).
		seen := map[DocID]bool{}
		var cands []DocID
		for _, term := range terms {
			for _, p := range dec.Postings(term) {
				if !seen[p.Doc] {
					seen[p.Doc] = true
					cands = append(cands, p.Doc)
				}
			}
		}
		sortDocs(cands)

		rankWeights := []float64{0, 1, 1000}
		rw := rankWeights[int(rwRaw)%len(rankWeights)]
		ranks := map[DocID]float64{}
		maxRank := 0.0
		for _, d := range cands {
			if rng.Intn(2) == 0 {
				r := float64(rng.Intn(100)) / 100
				ranks[d] = r
				if r > maxRank {
					maxRank = r
				}
			}
		}
		sc := NewScorer(CorpusStats{DocCount: len(dec.DocLens), AvgDocLen: 7}, rw)
		k := 1 + int(kRaw)%12

		want := exhaustiveTopK(cands, terms, built, sc, ranks, maxRank, k)
		var stats WANDStats
		got := WANDTopK(cands, cursors, sc, noDocLen(t),
			func(d DocID) float64 { return ranks[d] },
			maxRank, k, &stats)
		if len(got) != len(want) {
			t.Logf("len %d, want %d", len(got), len(want))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("rank %d: %+v, want %+v (rw=%v k=%d split=%v)", i, got[i], want[i], rw, k, split)
				return false
			}
		}
		if stats.PostingsScanned < 0 || stats.BlocksSkipped < 0 || stats.DocsSkipped < 0 {
			t.Log("negative stats")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWANDDirectMatchesExhaustive: the single-term block walker must
// agree with exhaustive scoring for every k, on a corpus big enough that
// blocks actually get skipped.
func TestWANDDirectMatchesExhaustive(t *testing.T) {
	seg := denseSparseSegment(400)
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	term := Stem("dense")
	pl := seg.Terms[term]
	cands := make([]DocID, len(pl))
	for i, p := range pl {
		cands[i] = p.Doc
	}
	ranks := map[DocID]float64{}
	maxRank := 0.5
	for i, d := range cands {
		ranks[d] = float64(i%7) / 14
	}
	sc := NewScorer(CorpusStats{DocCount: 400, AvgDocLen: 8}, 2)
	for _, k := range []int{1, 3, 10, 33, 400, 1000} {
		want := exhaustiveTopK(cands, []string{term}, []*Segment{seg}, sc, ranks, maxRank, k)
		var stats WANDStats
		got := WANDTopKDirect(dec.Cursor(term), sc, noDocLen(t),
			func(d DocID) float64 { return ranks[d] },
			maxRank, k, &stats)
		if len(got) != len(want) {
			t.Fatalf("k=%d: len %d, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d rank %d: %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}

	// Skips need headroom between the root and later bounds: a skewed
	// corpus (one high-TF block, the rest TF=1) with the rank blend off.
	skew := NewSegment(1)
	term = Stem("skew")
	var spl PostingList
	for i := 0; i < 400; i++ {
		doc := DocID(i + 1)
		skew.DocLens[doc] = 8
		tf := uint32(1)
		if i < 2*postingsBlockSize && i >= postingsBlockSize-4 {
			// A high-TF run straddling a block boundary, wider than k, so
			// the heap fills with high scores and every later TF=1 block's
			// bound falls strictly below the threshold.
			tf = 50
		}
		spl = append(spl, Posting{Doc: doc, TF: tf, Positions: []uint32{0}})
	}
	skew.Terms[term] = spl
	decSkew, err := DecodeSegment(skew.Encode())
	if err != nil {
		t.Fatal(err)
	}
	cands = cands[:0]
	for _, p := range spl {
		cands = append(cands, p.Doc)
	}
	sc = NewScorer(CorpusStats{DocCount: 400, AvgDocLen: 8}, 0)
	want := exhaustiveTopK(cands, []string{term}, []*Segment{skew}, sc, nil, 0, 10)
	var stats WANDStats
	got := WANDTopKDirect(decSkew.Cursor(term), sc, noDocLen(t),
		func(DocID) float64 { return 0 }, 0, 10, &stats)
	if len(got) != len(want) {
		t.Fatalf("skew: len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("skew rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if stats.DocsSkipped == 0 || stats.BlocksSkipped == 0 {
		t.Fatalf("skewed corpus skipped nothing: %+v", stats)
	}
}

// sortDocs sorts a DocID slice ascending (tests only).
func sortDocs(docs []DocID) {
	for i := 1; i < len(docs); i++ {
		for j := i; j > 0 && docs[j] < docs[j-1]; j-- {
			docs[j], docs[j-1] = docs[j-1], docs[j]
		}
	}
}

// TestV3EmptySegment: a docless, termless segment round-trips.
func TestV3EmptySegment(t *testing.T) {
	seg := NewSegment(9)
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gen != 9 || dec.NumTerms() != 0 {
		t.Fatalf("gen=%d terms=%d", dec.Gen, dec.NumTerms())
	}
}

// TestV3ManyTermsDictionaryBlocks exercises multi-block v3 dictionaries:
// every term findable through the 64-term index, absent probes miss.
func TestV3ManyTermsDictionaryBlocks(t *testing.T) {
	seg := NewSegment(3)
	for i := 0; i < 1000; i++ {
		term := fmt.Sprintf("term%05d", i)
		doc := DocID(i + 1)
		seg.Terms[term] = PostingList{{Doc: doc, TF: 1, Positions: []uint32{0}}}
		seg.DocLens[doc] = 1
	}
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		term := fmt.Sprintf("term%05d", i)
		if len(dec.Postings(term)) != 1 {
			t.Fatalf("term %q not found", term)
		}
		if dec.Cursor(term) == nil {
			t.Fatalf("no cursor for %q", term)
		}
	}
	for _, absent := range []string{"", "a", "term00999x", "zzz"} {
		if len(dec.Postings(absent)) != 0 || dec.Cursor(absent) != nil {
			t.Fatalf("absent term %q matched", absent)
		}
	}
}
