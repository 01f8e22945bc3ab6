package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
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

// segmentsLogicallyEqual compares two segments term by term through the
// public API, so a built and a lazily decoded segment can be checked
// against each other.
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
	}
}

// TestSegmentV2RoundTripProperty: for random segments, encode → decode →
// re-encode is byte-identical (determinism commit–reveal voting needs),
// and the lazy decoding agrees logically with the built segment.
func TestSegmentV2RoundTripProperty(t *testing.T) {
	f := func(seed uint16, genRaw uint8) bool {
		seg := randomDocSegment(uint64(seed), uint64(genRaw))

		enc := seg.Encode()
		dec, err := DecodeSegment(enc)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Log("decode → encode not byte-identical")
			return false
		}
		if !bytes.Equal(seg.Encode(), enc) {
			t.Log("encode not deterministic across calls")
			return false
		}
		segmentsLogicallyEqual(t, seg, dec)
		if dec.lazy == nil && dec.NumTerms() > 0 {
			t.Log("a non-empty segment decoded eagerly")
			return false
		}
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

// TestSegmentV2LargeDictionary exercises multi-block dictionaries (5k
// terms is ~80 blocks at dictBlockSize 64): every term must be findable
// and absent probes must miss cleanly at block boundaries.
func TestSegmentV2LargeDictionary(t *testing.T) {
	seg := NewSegment(3)
	for i := 0; i < 5000; i++ {
		term := fmt.Sprintf("term%05d", i)
		doc := DocID(i + 1)
		seg.Terms[term] = PostingList{{Doc: doc, TF: 1, Positions: []uint32{uint32(i)}}}
		seg.DocLens[doc] = 1
	}
	dec, err := DecodeSegment(seg.Encode())
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

// TestSegmentV2MergeAgreesWithEager: merging lazily decoded segments must
// produce the same bytes as merging their eager builder-built originals.
func TestSegmentV2MergeAgreesWithEager(t *testing.T) {
	var eager, lazy []*Segment
	for i := 0; i < 4; i++ {
		s := randomDocSegment(uint64(100+i), uint64(i+1))
		eager = append(eager, s)
		d, err := DecodeSegment(s.Encode())
		if err != nil {
			t.Fatal(err)
		}
		lazy = append(lazy, d)
	}
	if !bytes.Equal(Merge(eager).Encode(), Merge(lazy).Encode()) {
		t.Fatal("merge of lazy segments diverges from merge of eager segments")
	}
}

// TestMergeSkipsCorruptSegment: a lazy segment whose posting bytes fail
// to decode must contribute nothing to a merge — in particular its
// tombstones must not delete older valid postings.
func TestMergeSkipsCorruptSegment(t *testing.T) {
	good := buildSeg(1, map[DocID]string{1: "alpha beta", 2: "gamma delta"})
	newer := buildSeg(2, map[DocID]string{1: "epsilon zeta"})
	dec, err := DecodeSegment(newer.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// Clobber the first posting list's count varint: the dictionary still
	// validates (lengths unchanged) but every full decode now fails.
	dec.lazy.posts[0] = 0xFF
	if err := dec.Validate(); err == nil {
		t.Fatal("corrupted postings should fail Validate")
	}
	m := Merge([]*Segment{good, dec})
	pl := m.Postings(Stem("alpha"))
	if _, found := pl.Find(1); !found {
		t.Fatal("corrupt newer segment tombstoned doc 1's valid postings")
	}
	if m.Covers(1) && len(m.Postings(Stem("epsilon"))) != 0 {
		t.Fatal("corrupt segment contributed postings")
	}

	// Restricted to the term whose list is corrupt (the first in the
	// dictionary), the run comes back unrestricted and the merge of the
	// restricted runs still skips it whole.
	first := dec.TermsSorted()[0]
	r := dec.Restrict(func(term string) bool { return term == first })
	if r != dec {
		t.Fatal("a run whose kept term fails to decode must come back unrestricted")
	}
	m = Merge([]*Segment{good, r})
	if _, found := m.Postings(Stem("alpha")).Find(1); !found {
		t.Fatal("restricted corrupt run tombstoned doc 1's valid postings")
	}
	if len(m.Postings(first)) != 0 {
		t.Fatal("restricted corrupt run contributed postings")
	}
}

// TestDecodeRejectsDocOverflow: a delta term whose accumulated doc IDs
// exceed 32 bits would truncate into non-ascending order on decode; the
// decode-time walk must reject it — whether a single gap is too wide or
// the running sum is — instead of letting lookups silently fail later.
// The skip entry claims the truncated last DocID, so only the postings
// walk can catch the lie; the same hand-built bytes with a small gap
// decode, which pins the rejection on the overflow.
func TestDecodeRejectsDocOverflow(t *testing.T) {
	build := func(gap, claimedLast uint64) []byte {
		var blob []byte
		blob = binary.AppendUvarint(blob, 1)   // doc 1
		blob = binary.AppendUvarint(blob, 1)   // TF
		blob = binary.AppendUvarint(blob, 0)   // no positions
		blob = binary.AppendUvarint(blob, gap) // second doc
		blob = binary.AppendUvarint(blob, 1)   // TF
		blob = binary.AppendUvarint(blob, 0)   // no positions

		var dict []byte
		dict = binary.AppendUvarint(dict, 1) // termLen
		dict = append(dict, 'x')
		dict = binary.AppendUvarint(dict, 0)                 // enc: delta
		dict = binary.AppendUvarint(dict, 2)                 // df
		dict = binary.AppendUvarint(dict, uint64(len(blob))) // blobLen
		dict = binary.AppendUvarint(dict, claimedLast)       // skip: last DocID
		dict = binary.AppendUvarint(dict, uint64(len(blob))) // skip: end offset
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
	if _, err := DecodeSegment(build(2, 3)); err != nil {
		t.Fatalf("hand-built control segment should decode: %v", err)
	}
	if _, err := DecodeSegment(build(1<<32, 1)); err == nil {
		t.Fatal("a doc gap wider than 32 bits should fail decode")
	}
	if _, err := DecodeSegment(build(1<<32-1, 0)); err == nil {
		t.Fatal("an accumulated doc ID past 32 bits should fail decode")
	}
}

// TestDecodeRejectsTamperedBlockIndex: nudging a block-index offset so it
// no longer lands on a dictionary entry boundary must fail decode loudly
// — a frontend must never serve a segment whose lookups silently miss
// terms the dictionary contains.
func TestDecodeRejectsTamperedBlockIndex(t *testing.T) {
	seg := NewSegment(1)
	for i := 0; i < 130; i++ { // 3 blocks at dictBlockSize 64
		term := fmt.Sprintf("term%05d", i)
		doc := DocID(i + 1)
		seg.Terms[term] = PostingList{{Doc: doc, TF: 1, Positions: []uint32{0}}}
		seg.DocLens[doc] = 1
	}
	enc := seg.Encode()
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

// TestTermsSortedMemoized: repeated calls return the same backing slice.
func TestTermsSortedMemoized(t *testing.T) {
	seg := randomDocSegment(7, 1)
	a, b := seg.TermsSorted(), seg.TermsSorted()
	if len(a) == 0 {
		t.Fatal("empty segment")
	}
	if &a[0] != &b[0] {
		t.Fatal("TermsSorted rebuilt the slice on a second call")
	}
	dec, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	c, d := dec.TermsSorted(), dec.TermsSorted()
	if &c[0] != &d[0] {
		t.Fatal("lazy TermsSorted rebuilt the slice on a second call")
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

// FuzzDecodeSegment: arbitrary bytes must never panic the decoder, every
// successful decode must validate or fail cleanly, and a lazy decode must
// re-encode to the exact input bytes. The retired v1/v2 magics are seeded
// one byte away from a valid segment, so the corpus sits on both sides of
// the format check.
func FuzzDecodeSegment(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0xFF, 0xFF, 0x01})
	seed := randomDocSegment(11, 2)
	f.Add(seed.Encode())
	f.Add(retagged(seed.Encode(), 0x5153))
	f.Add(retagged(seed.Encode(), 0x5154))
	f.Add(denseSparseSegment(40).Encode())
	empty := NewSegment(0)
	f.Add(empty.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := DecodeSegment(data)
		if err != nil {
			return
		}
		if seg.lazy != nil {
			if !bytes.Equal(seg.Encode(), data) {
				t.Fatal("decode → encode not byte-identical")
			}
		}
		// Decode structurally validates both regions up front; Validate
		// additionally cross-checks DocLens/TF and must either pass or
		// return an error, never panic.
		_ = seg.Validate()
		for _, term := range seg.TermsSorted() {
			_ = seg.Postings(term)
		}
	})
}

// FuzzRestrict: for any bytes DecodeSegment accepts and any shard split,
// restricting the lazy segment agrees with restricting its materialized
// copy — terms, postings, DocLens and Gen — and neither panics.
func FuzzRestrict(f *testing.F) {
	f.Add(randomDocSegment(11, 2).Encode(), uint8(8), uint8(3))
	f.Add(denseSparseSegment(40).Encode(), uint8(4), uint8(1))
	f.Add(NewSegment(0).Encode(), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, shards, shard uint8) {
		seg, err := DecodeSegment(data)
		if err != nil {
			return
		}
		n := 1 + int(shards%8)
		keep := func(term string) bool { return ShardOf(term, n) == int(shard)%n }
		got := seg.Restrict(keep) // before postingsMap memoizes anything
		terms, err := seg.postingsMap()
		if err != nil {
			return
		}
		want := (&Segment{Gen: seg.Gen, Terms: terms, DocLens: seg.DocLens}).Restrict(keep)
		if got.Gen != want.Gen || !reflect.DeepEqual(got.Terms, want.Terms) || !reflect.DeepEqual(got.DocLens, want.DocLens) {
			t.Fatalf("lazy Restrict %d terms, materialized %d (gen %d/%d)", len(got.Terms), len(want.Terms), got.Gen, want.Gen)
		}
	})
}
