package index

import (
	"encoding/binary"
	"sort"
)

// cursorMeta is a segment's memoized per-term skip metadata: the parsed
// block skips plus either a materialized posting list (built segments and
// already-decoded terms) or a lazy block source. It is immutable once
// built; TermCursor instances reference it but keep their own position
// state, so one query's cursor never perturbs another's.
type cursorMeta struct {
	df    int
	skips []BlockSkip
	pl    PostingList     // materialized source (nil when src is set)
	src   *lazyTermSource // lazy v3 block-decodable source
}

// lazyTermSource addresses one term's v3 postings blob for
// block-granular decoding without materializing the whole list.
type lazyTermSource struct {
	enc        uint8   // 0 = delta blocks, 1 = bitmap
	payload    []byte  // delta: whole blob; bitmap: TF/positions stream
	bitmap     []byte  // bitmap terms only
	docsSorted []DocID // bitmap terms only: ordinal → DocID
}

// Cursor returns a fresh block-max cursor over a term's postings, or nil
// if the term is absent. The underlying skip metadata is parsed (lazy
// segments) or computed (materialized lists) once per term and memoized
// on the segment; each call returns an independent cursor so concurrent
// queries never share position state.
func (s *Segment) Cursor(term string) *TermCursor {
	s.mu.RLock()
	m, ok := s.cursors[term]
	s.mu.RUnlock()
	if !ok {
		m = s.buildCursorMeta(term)
		s.mu.Lock()
		if s.cursors == nil {
			s.cursors = make(map[string]*cursorMeta)
		}
		if cached, dup := s.cursors[term]; dup {
			m = cached
		} else {
			s.cursors[term] = m
		}
		s.mu.Unlock()
	}
	if m == nil {
		return nil
	}
	return &TermCursor{df: m.df, skips: m.skips, pl: m.pl, src: m.src, lens: s.DocLens, decoded: -1, boundBi: -1}
}

// buildCursorMeta assembles a term's skip metadata. Lazy segments parse
// the skip entries straight out of the dictionary (no posting decode);
// built segments and already-decoded terms derive equivalent skips from
// the materialized list.
func (s *Segment) buildCursorMeta(term string) *cursorMeta {
	s.mu.RLock()
	lazy := s.lazy
	var cached PostingList
	var inCache bool
	if lazy != nil {
		cached, inCache = lazy.cache[term]
	}
	s.mu.RUnlock()

	if lazy != nil && !inCache {
		e, blob, found, err := lazy.findV3(term)
		if err != nil || !found {
			return nil
		}
		skips, err := parseSkipsV3(e.skipsRaw, e.df)
		if err != nil {
			return nil
		}
		src := &lazyTermSource{enc: uint8(e.enc)}
		if e.enc == 1 {
			bmLen, n := binary.Uvarint(blob)
			if n <= 0 || uint64(len(blob)-n) < bmLen {
				return nil // unreachable post-validation
			}
			src.bitmap = blob[n : n+int(bmLen)]
			src.payload = blob[n+int(bmLen):]
			src.docsSorted = lazy.docsSorted
		} else {
			src.payload = blob
		}
		return &cursorMeta{df: e.df, skips: skips, src: src}
	}

	pl := cached
	if !inCache {
		pl = s.Postings(term)
	}
	if len(pl) == 0 {
		return nil
	}
	return &cursorMeta{df: len(pl), skips: computeSkips(pl, s.DocLens), pl: pl}
}

// computeSkips derives the encoder's skip entries from a materialized
// posting list: per postingsBlockSize-posting block, the last DocID and
// the canonical (TF, docLen) frontier. End offsets are unused for
// materialized sources. Missing docLens entries fall back to length 0,
// matching the encoder rule (a zero length only inflates the bound —
// still safe).
func computeSkips(pl PostingList, docLens map[DocID]uint32) []BlockSkip {
	nblocks := (len(pl) + postingsBlockSize - 1) / postingsBlockSize
	skips := make([]BlockSkip, 0, nblocks)
	var pairs []TFDL
	for b := 0; b < nblocks; b++ {
		lo := b * postingsBlockSize
		hi := lo + v3BlockLen(b, len(pl))
		pairs = pairs[:0]
		for i := lo; i < hi; i++ {
			pairs = append(pairs, TFDL{pl[i].TF, docLens[pl[i].Doc]})
		}
		fr := blockFrontier(pairs)
		skips = append(skips, BlockSkip{LastDoc: pl[hi-1].Doc, Frontier: append([]TFDL(nil), fr...)})
	}
	return skips
}

// TermCursor walks one term's postings block by block in ascending DocID
// order. It supports shallow seeks (skip-pointer galloping that moves
// between blocks without decoding them), per-block score bounds, and
// on-demand block decoding — the primitives the WAND executor composes
// into top-k early termination. Not safe for concurrent use; obtain one
// per query via Segment.Cursor.
type TermCursor struct {
	df    int
	skips []BlockSkip
	pl    PostingList
	src   *lazyTermSource
	lens  map[DocID]uint32 // the segment's doc lengths, which the skips' bounds use

	bi      int // current block index (len(skips) = exhausted)
	decoded int // block currently decoded into docs/tfs (-1 = none)
	docs    []DocID
	tfs     []uint32
	scan    int // forward scan position within the decoded block

	boundBi  int // block the memoized bound was computed for (-1 = none)
	boundVal float64

	scanned       int64 // postings decoded (drained into WANDStats)
	skippedBlocks int64 // blocks passed without decoding
}

// DF returns the term's document frequency in this segment.
func (c *TermCursor) DF() int { return c.df }

// Exhausted reports whether the cursor has moved past its last block.
func (c *TermCursor) Exhausted() bool { return c.bi >= len(c.skips) }

// BlockLast returns the current block's last DocID.
func (c *TermCursor) BlockLast() DocID { return c.skips[c.bi].LastDoc }

// ShallowSeek advances the cursor to the first block whose last DocID is
// ≥ d without decoding anything, galloping through the skip entries
// (doubling probe, then binary search within the bracket). Blocks passed
// over undecoded are counted as skipped.
func (c *TermCursor) ShallowSeek(d DocID) {
	if c.bi >= len(c.skips) || c.skips[c.bi].LastDoc >= d {
		return
	}
	lo := c.bi
	step := 1
	for lo+step < len(c.skips) && c.skips[lo+step].LastDoc < d {
		lo += step
		step <<= 1
	}
	hi := lo + step + 1
	if hi > len(c.skips) {
		hi = len(c.skips)
	}
	nb := lo + 1 + sort.Search(hi-lo-1, func(x int) bool { return c.skips[lo+1+x].LastDoc >= d })
	skipped := nb - c.bi
	if c.decoded >= c.bi && c.decoded < nb {
		skipped-- // the decoded block was evaluated, not skipped
	}
	c.skippedBlocks += int64(skipped)
	c.bi = nb
}

// Bound returns the current block's maximum possible text-score
// contribution under the given scorer: the max of TermScore over the
// block's frontier pairs. Exact (not an estimate) — the frontier retains
// every pair that can achieve the block max — and memoized per block.
func (c *TermCursor) Bound(sc *Scorer) float64 {
	if c.boundBi != c.bi {
		c.boundBi = c.bi
		c.boundVal = c.boundOf(c.bi, sc)
	}
	return c.boundVal
}

// docLen is d's length in the cursor's segment, or fallback(d) when the
// segment records none (its bounds then assumed length 0, the maximum).
func (c *TermCursor) docLen(d DocID, fallback func(DocID) uint32) uint32 {
	if l, ok := c.lens[d]; ok {
		return l
	}
	return fallback(d)
}

// boundOf computes block bi's bound without moving the cursor.
func (c *TermCursor) boundOf(bi int, sc *Scorer) float64 {
	best := 0.0
	for _, p := range c.skips[bi].Frontier {
		if v := sc.TermScore(p.TF, p.DL, c.df); v > best {
			best = v
		}
	}
	return best
}

// SeekTF returns the term frequency for document d, decoding at most the
// one block that can contain it. The cursor only moves forward; callers
// must probe ascending DocIDs.
func (c *TermCursor) SeekTF(d DocID) (uint32, bool) {
	c.ShallowSeek(d)
	if c.bi >= len(c.skips) {
		return 0, false
	}
	if !c.ensureDecoded() {
		return 0, false
	}
	for c.scan < len(c.docs) && c.docs[c.scan] < d {
		c.scan++
	}
	if c.scan < len(c.docs) && c.docs[c.scan] == d {
		return c.tfs[c.scan], true
	}
	return 0, false
}

// ensureDecoded materializes the current block's (DocID, TF) columns.
func (c *TermCursor) ensureDecoded() bool {
	if c.decoded == c.bi {
		return true
	}
	n := v3BlockLen(c.bi, c.df)
	c.docs = c.docs[:0]
	c.tfs = c.tfs[:0]
	if c.pl != nil {
		lo := c.bi * postingsBlockSize
		for i := lo; i < lo+n; i++ {
			c.docs = append(c.docs, c.pl[i].Doc)
			c.tfs = append(c.tfs, c.pl[i].TF)
		}
	} else if !c.src.decodeBlock(c.bi, c.skips, n, &c.docs, &c.tfs) {
		// Unreachable for validated segments; defensively exhaust the
		// cursor so corruption degrades to an absent term, mirroring
		// Postings' behavior, rather than panicking.
		c.bi = len(c.skips)
		return false
	}
	c.decoded = c.bi
	c.scan = 0
	c.scanned += int64(n)
	return true
}

// decodeBlock parses block bi's postings out of the lazy source. For
// delta terms the doc-gap chain restarts from the previous block's last
// DocID; for bitmap terms the start ordinal is recovered by binary
// search for the previous block's last DocID (itself a set bit).
func (s *lazyTermSource) decodeBlock(bi int, skips []BlockSkip, n int, docs *[]DocID, tfs *[]uint32) bool {
	start := 0
	prevDoc := uint64(0)
	ord := 0
	if bi > 0 {
		start = skips[bi-1].EndOff
		prevDoc = uint64(skips[bi-1].LastDoc)
		if s.enc == 1 {
			ord = sort.Search(len(s.docsSorted), func(i int) bool { return s.docsSorted[i] >= DocID(prevDoc) }) + 1
		}
	}
	end := skips[bi].EndOff
	if start > end || end > len(s.payload) {
		return false
	}
	b := s.payload[start:end]
	for i := 0; i < n; i++ {
		var doc DocID
		if s.enc == 0 {
			gap, ln := binary.Uvarint(b)
			if ln <= 0 {
				return false
			}
			b = b[ln:]
			prevDoc += gap
			doc = DocID(prevDoc)
		} else {
			for ord < len(s.docsSorted) && s.bitmap[ord>>3]&(1<<uint(ord&7)) == 0 {
				ord++
			}
			if ord >= len(s.docsSorted) {
				return false
			}
			doc = s.docsSorted[ord]
			ord++
		}
		tf, ln := binary.Uvarint(b)
		if ln <= 0 {
			return false
		}
		b = b[ln:]
		npos, ln := binary.Uvarint(b)
		if ln <= 0 {
			return false
		}
		b = b[ln:]
		for j := uint64(0); j < npos; j++ {
			if _, ln = binary.Uvarint(b); ln <= 0 {
				return false
			}
			b = b[ln:]
		}
		*docs = append(*docs, doc)
		*tfs = append(*tfs, uint32(tf))
	}
	return true
}
