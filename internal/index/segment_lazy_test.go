package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// randomSegment builds a segment from pseudo-random documents so property
// tests cover many shapes (doc counts, term overlap, position spreads).
func randomDocSegment(seed uint64, gen uint64) *Segment {
	rng := xrand.New(seed + 1)
	b := NewBuilder(gen)
	ndocs := 1 + rng.Intn(12)
	for i := 0; i < ndocs; i++ {
		doc := DocID(1 + rng.Intn(500))
		nwords := 1 + rng.Intn(40)
		var text bytes.Buffer
		for w := 0; w < nwords; w++ {
			fmt.Fprintf(&text, "word%02d ", rng.Intn(30))
		}
		b.Add(doc, text.String())
	}
	return b.Build()
}

// segmentsLogicallyEqual compares two segments term by term — Gen,
// DocLens, terms, postings with positions, and each term's cursor skip
// entries — so a view opened without validation and its decoding can be
// checked against each other.
func segmentsLogicallyEqual(t *testing.T, a, b *Segment) {
	t.Helper()
	if a.Gen != b.Gen {
		t.Fatalf("gen mismatch: %d vs %d", a.Gen, b.Gen)
	}
	if len(a.DocLens) != len(b.DocLens) {
		t.Fatalf("doclens size: %d vs %d", len(a.DocLens), len(b.DocLens))
	}
	for d, l := range a.DocLens {
		if b.DocLens[d] != l {
			t.Fatalf("doclen doc %d: %d vs %d", d, l, b.DocLens[d])
		}
	}
	at, bt := a.TermsSorted(), b.TermsSorted()
	if len(at) != len(bt) {
		t.Fatalf("term count: %d vs %d", len(at), len(bt))
	}
	for i, term := range at {
		if bt[i] != term {
			t.Fatalf("term %d: %q vs %q", i, term, bt[i])
		}
		apl, bpl := a.Postings(term), b.Postings(term)
		if len(apl) != len(bpl) {
			t.Fatalf("term %q postings: %d vs %d", term, len(apl), len(bpl))
		}
		for j := range apl {
			if apl[j].Doc != bpl[j].Doc || apl[j].TF != bpl[j].TF {
				t.Fatalf("term %q posting %d: %+v vs %+v", term, j, apl[j], bpl[j])
			}
			if len(apl[j].Positions) != len(bpl[j].Positions) {
				t.Fatalf("term %q posting %d positions", term, j)
			}
			for p := range apl[j].Positions {
				if apl[j].Positions[p] != bpl[j].Positions[p] {
					t.Fatalf("term %q posting %d position %d", term, j, p)
				}
			}
		}
		if !reflect.DeepEqual(a.Cursor(term).skips, b.Cursor(term).skips) {
			t.Fatalf("term %q skip entries differ", term)
		}
	}
}

// TestOpenedViewsValidate pins the trust assumption behind openWritten:
// Builder.Build and Merge open the bytes they just wrote without
// DecodeSegment's region walk, so every such view must pass that walk
// and read back identically — Gen, DocLens, postings and cursor skips.
// Seeded batches republish documents within a batch (a small DocID
// range) and chains of 2–8 runs repeat Gens and republish across runs;
// re-encoding a decoded view must give back its bytes.
func TestOpenedViewsValidate(t *testing.T) {
	check := func(what string, view *Segment) {
		t.Helper()
		enc := view.Encode()
		dec, err := DecodeSegment(enc)
		if err != nil {
			t.Fatalf("%s: an opened view fails validation: %v", what, err)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("%s: decode → encode not byte-identical", what)
		}
		segmentsLogicallyEqual(t, view, dec)
	}
	for seed := uint64(0); seed < 100; seed++ {
		rng := xrand.New(seed)
		runs := make([]*Segment, 2+rng.Intn(7))
		for i := range runs {
			b := NewBuilder(uint64(1 + rng.Intn(4)))
			for d := 0; d < 1+rng.Intn(24); d++ {
				var text bytes.Buffer
				for w := 0; w < rng.Intn(30); w++ {
					fmt.Fprintf(&text, "word%02d ", rng.Intn(30))
				}
				b.Add(DocID(1+rng.Intn(40)), text.String())
			}
			runs[i] = b.Build()
			check(fmt.Sprintf("seed %d batch %d", seed, i), runs[i])
		}
		check(fmt.Sprintf("seed %d chain of %d", seed, len(runs)), Merge(runs))
	}
}

// TestSegmentLargeDictionary exercises multi-block dictionaries (5k
// terms is ~80 blocks at dictBlockSize 64): every term must be findable
// and absent probes must miss cleanly at block boundaries.
func TestSegmentLargeDictionary(t *testing.T) {
	docLens, terms := make(map[DocID]uint32), make(map[string]PostingList)
	for i := 0; i < 5000; i++ {
		doc := DocID(i + 1)
		terms[fmt.Sprintf("term%05d", i)] = PostingList{{Doc: doc, TF: 1, Positions: []uint32{uint32(i)}}}
		docLens[doc] = 1
	}
	dec, err := DecodeSegment(segmentOf(3, docLens, terms).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumTerms() != 5000 {
		t.Fatalf("nterms = %d", dec.NumTerms())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 2500, 4998, 4999} {
		term := fmt.Sprintf("term%05d", i)
		pl := dec.Postings(term)
		if len(pl) != 1 || pl[0].Doc != DocID(i+1) {
			t.Fatalf("term %q postings = %+v", term, pl)
		}
	}
	for _, absent := range []string{"", "aaa", "term", "term05000", "term99999", "zzz", "term0250", "term02500x"} {
		if pl := dec.Postings(absent); pl != nil {
			t.Fatalf("absent term %q returned %+v", absent, pl)
		}
	}
}

// TestMergeBuiltAgreesWithDecoded: merging decoded segments must produce
// the same bytes as merging the builder's views they were encoded from.
func TestMergeBuiltAgreesWithDecoded(t *testing.T) {
	var built, decoded []*Segment
	for i := 0; i < 4; i++ {
		s := randomDocSegment(uint64(100+i), uint64(i+1))
		built = append(built, s)
		d, err := DecodeSegment(s.Encode())
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, d)
	}
	if !bytes.Equal(Merge(built).Encode(), Merge(decoded).Encode()) {
		t.Fatal("merge of decoded segments diverges from merge of built segments")
	}
}

// TestDecodeRejectsDocOverflow pins every record-level check decoding
// must keep, on a hand-built one-term segment of two delta records. Each
// mutant breaks one record rule while its skip entry claims what a
// reader that skipped the check would compute (a doc ID or TF truncated
// to 32 bits, the records' true end), so only that check can catch it;
// the control, the same bytes with valid records, must decode.
func TestDecodeRejectsDocOverflow(t *testing.T) {
	// record returns a copy of b with a delta record appended: doc gap,
	// TF, position count, then the raw bytes of its position varints.
	record := func(b []byte, gap, tf, npos uint64, positions ...byte) []byte {
		b = binary.AppendUvarint(slices.Clip(b), gap)
		b = binary.AppendUvarint(b, tf)
		b = binary.AppendUvarint(b, npos)
		return append(b, positions...)
	}
	// build wraps blob as term "x" (df 2) of an otherwise empty segment.
	// The skip entry claims last DocID claimedLast and end offset endOff
	// (the blob's length when 0).
	build := func(blob []byte, claimedLast, endOff uint64) []byte {
		if endOff == 0 {
			endOff = uint64(len(blob))
		}
		var dict []byte
		dict = binary.AppendUvarint(dict, 1) // termLen
		dict = append(dict, 'x')
		dict = binary.AppendUvarint(dict, 0)                 // enc: delta
		dict = binary.AppendUvarint(dict, 2)                 // df
		dict = binary.AppendUvarint(dict, uint64(len(blob))) // blobLen
		dict = binary.AppendUvarint(dict, claimedLast)       // skip: last DocID
		dict = binary.AppendUvarint(dict, endOff)            // skip: end offset
		dict = binary.AppendUvarint(dict, 1)                 // skip: one frontier pair
		dict = binary.AppendUvarint(dict, 1)                 // pair TF
		dict = binary.AppendUvarint(dict, 0)                 // pair DL (docs uncovered)

		enc := binary.AppendUvarint(nil, segmentMagic)
		enc = binary.AppendUvarint(enc, 1) // gen
		enc = binary.AppendUvarint(enc, 0) // ndocs
		enc = binary.AppendUvarint(enc, 1) // nterms
		enc = binary.AppendUvarint(enc, 1) // nblocks
		enc = binary.AppendUvarint(enc, 1) // block firstTermLen
		enc = append(enc, 'x')
		enc = binary.AppendUvarint(enc, 0) // block dictOff
		enc = binary.AppendUvarint(enc, 0) // block postOff
		enc = binary.AppendUvarint(enc, uint64(len(dict)))
		enc = append(enc, dict...)
		enc = binary.AppendUvarint(enc, uint64(len(blob)))
		return append(enc, blob...)
	}
	doc1 := record(nil, 1, 1, 1, 4) // doc 1, TF 1, one position
	control := record(doc1, 2, 1, 0)
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x00)
	if _, err := DecodeSegment(build(control, 3, 0)); err != nil {
		t.Fatalf("hand-built control segment should decode: %v", err)
	}
	mutants := []struct {
		name         string
		blob         []byte
		last, endOff uint64
	}{
		{"doc gap wider than 32 bits", record(doc1, 1<<32, 1, 0), 1, 0},
		{"doc gap that wraps the sum to zero", record(doc1, 1<<64-1, 1, 0), 0, 0},
		{"accumulated doc ID past 32 bits", record(doc1, 1<<32-1, 1, 0), 0, 0},
		{"zero doc gap after the first record", record(doc1, 0, 1, 0), 1, 0},
		{"TF of 2^32", record(doc1, 2, 1<<32, 0), 3, 0},
		{"overlong position varint", record(doc1, 2, 1, 1, overlong...), 3, 0},
		{"truncated position run", record(doc1, 2, 1, 2, 5), 3, 0},
		{"bytes after the df-th record", append(slices.Clip(control), 0), 3, uint64(len(control))},
		{"skip end offset off by one", control, 3, uint64(len(control)) - 1},
	}
	for _, m := range mutants {
		if _, err := DecodeSegment(build(m.blob, m.last, m.endOff)); err == nil {
			t.Errorf("%s: decoded without error", m.name)
		}
	}
}

// TestDecodeRejectsTamperedBlockIndex: nudging a block-index offset so it
// no longer lands on a dictionary entry boundary must fail decode loudly
// — a frontend must never serve a segment whose lookups silently miss
// terms the dictionary contains.
func TestDecodeRejectsTamperedBlockIndex(t *testing.T) {
	docLens, terms := make(map[DocID]uint32), make(map[string]PostingList)
	for i := 0; i < 130; i++ { // 3 blocks at dictBlockSize 64
		doc := DocID(i + 1)
		terms[fmt.Sprintf("term%05d", i)] = PostingList{{Doc: doc, TF: 1, Positions: []uint32{0}}}
		docLens[doc] = 1
	}
	enc := segmentOf(1, docLens, terms).Encode()
	if _, err := DecodeSegment(enc); err != nil {
		t.Fatal(err)
	}

	// Walk to block 1's dictOff varint: magic, gen, docs region, nterms,
	// nblocks, block 0 (termLen, term, dictOff, postOff), block 1's
	// termLen + term.
	off := 0
	skip := func() uint64 {
		v, n := binary.Uvarint(enc[off:])
		if n <= 0 {
			t.Fatal("walk failed")
		}
		off += n
		return v
	}
	skip() // magic
	skip() // gen
	ndocs := skip()
	for i := uint64(0); i < ndocs; i++ {
		skip() // doc gap
		skip() // doc len
	}
	skip() // nterms
	skip() // nblocks
	for b := 0; b < 2; b++ {
		tlen := skip()
		off += int(tlen)
		if b == 0 {
			skip() // block 0 dictOff
			skip() // block 0 postOff
		}
	}
	tampered := append([]byte(nil), enc...)
	tampered[off]++ // block 1 dictOff: mid-entry, no longer a boundary
	if _, err := DecodeSegment(tampered); err == nil {
		t.Fatal("tampered block index should fail decode")
	}
}

// TestTopKMatchesFullSort: the bounded-heap selection must agree exactly
// with the reference full-sort implementation for every k.
func TestTopKMatchesFullSort(t *testing.T) {
	f := func(seed uint16, kRaw uint8) bool {
		rng := xrand.New(uint64(seed) + 1)
		n := 1 + rng.Intn(200)
		docs := make([]ScoredDoc, n)
		for i := range docs {
			// Coarse scores force plenty of ties to exercise the DocID
			// tiebreaker.
			docs[i] = ScoredDoc{Doc: DocID(rng.Intn(1000)), Score: float64(rng.Intn(8))}
		}
		k := int(kRaw)%(n+4) + 1

		ref := append([]ScoredDoc(nil), docs...)
		sortScored(ref)
		if k < len(ref) {
			ref = ref[:k]
		}
		got := TopK(docs, k)
		if len(got) != len(ref) {
			t.Logf("len = %d, want %d", len(got), len(ref))
			return false
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Logf("rank %d: %+v, want %+v", i, got[i], ref[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeSegment: arbitrary bytes must never panic the decoder, a
// decode must re-encode to the exact input bytes, and every read of a
// segment it accepts must succeed and agree (checkReads). The retired
// v1/v2 magics are seeded one byte away from a valid segment, so the
// corpus sits on both sides of the format check.
func FuzzDecodeSegment(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0xFF, 0xFF, 0x01})
	seed := randomDocSegment(11, 2)
	f.Add(seed.Encode())
	f.Add(retagged(seed.Encode(), 0x5153))
	f.Add(retagged(seed.Encode(), 0x5154))
	f.Add(denseSparseSegment(40).Encode())
	// A delta term over three blocks: its documents are uncovered, so it
	// cannot take the bitmap.
	var spread PostingList
	for i := 0; i < 20; i++ {
		spread = append(spread, Posting{Doc: DocID(7 + 5*i), TF: uint32(1 + i%3), Positions: []uint32{uint32(i)}})
	}
	f.Add(segmentOf(3, nil, map[string]PostingList{"spread": spread}).Encode())
	empty := NewSegment(0)
	f.Add(empty.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := DecodeSegment(data)
		if err != nil {
			return
		}
		if !bytes.Equal(seg.Encode(), data) {
			t.Fatal("decode → encode not byte-identical")
		}
		checkReads(t, "decoded", seg)
	})
}

// checkReads reads every term of seg through each read path and requires
// them to agree: TermsSorted lists NumTerms terms in strictly ascending
// order, each has a posting list and a cursor of the list's length, and
// walking the cursor block by block yields the list's (DocID, TF)
// sequence. None of these reads may fail on an opened segment: a broken
// invariant panics.
func checkReads(t *testing.T, what string, seg *Segment) {
	t.Helper()
	terms := seg.TermsSorted()
	if len(terms) != seg.NumTerms() {
		t.Fatalf("%s: TermsSorted lists %d terms, NumTerms is %d", what, len(terms), seg.NumTerms())
	}
	for ti, term := range terms {
		if ti > 0 && terms[ti-1] >= term {
			t.Fatalf("%s: TermsSorted out of order at %d: %q then %q", what, ti, terms[ti-1], term)
		}
		pl := seg.Postings(term)
		cur := seg.Cursor(term)
		if pl == nil || cur == nil {
			t.Fatalf("%s %q: listed term has postings %v, cursor %v", what, term, pl != nil, cur != nil)
		}
		if cur.DF() != len(pl) {
			t.Fatalf("%s %q: cursor DF %d, list length %d", what, term, cur.DF(), len(pl))
		}
		i := 0
		for bi := range cur.skips {
			cur.bi = bi
			cur.ensureDecoded()
			for _, p := range cur.block {
				if i >= len(pl) || p.Doc != pl[i].Doc || p.TF != pl[i].TF {
					t.Fatalf("%s %q: cursor posting %d is (%d, %d), list disagrees", what, term, i, p.Doc, p.TF)
				}
				i++
			}
		}
		if i != len(pl) {
			t.Fatalf("%s %q: cursor walked %d postings, list holds %d", what, term, i, len(pl))
		}
	}
}
