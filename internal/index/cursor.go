package index

import (
	"slices"
	"sort"
)

// cursorMeta is a segment's memoized per-term cursor state: the parsed
// block skips and a reader at the start of the term's records. It is
// immutable once built; TermCursor instances reference it but keep their
// own position state, so one query's cursor never perturbs another's.
type cursorMeta struct {
	df     int
	skips  []BlockSkip
	opened postingReader // at the term's first record
}

// Cursor returns a fresh block-max cursor over a term's postings, or nil
// if the term is absent. The underlying skip metadata is parsed once per
// term and memoized on the segment; each call returns an independent
// cursor so concurrent queries never share position state.
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
	return &TermCursor{cursorMeta: m, lens: s.DocLens, decoded: -1, boundBi: -1}
}

// buildCursorMeta parses a term's skip entries straight out of the
// dictionary, decoding no postings; nil means the term is absent.
func (s *Segment) buildCursorMeta(term string) *cursorMeta {
	e, found := s.findV3(term)
	if !found {
		return nil
	}
	var sb skipBuf
	_, err := readSkips(e.skipsRaw, e.df, &sb)
	mustRead(err)
	m := &cursorMeta{df: e.df, skips: sb.skips}
	mustRead(m.opened.open(e.blob, e.enc, s.docsSorted))
	return m
}

// TermCursor walks one term's postings block by block in ascending DocID
// order. It supports shallow seeks (skip-pointer galloping that moves
// between blocks without decoding them), per-block score bounds, and
// on-demand block decoding — the primitives the WAND executor composes
// into top-k early termination. Not safe for concurrent use; obtain one
// per query via Segment.Cursor.
type TermCursor struct {
	*cursorMeta
	lens map[DocID]uint32 // the segment's doc lengths, which the skips' bounds use

	bi      int         // current block index (len(skips) = exhausted)
	decoded int         // block currently decoded into block (-1 = none)
	block   PostingList // the decoded block, without positions
	scan    int         // forward scan position within the decoded block

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
	c.ensureDecoded()
	for c.scan < len(c.block) && c.block[c.scan].Doc < d {
		c.scan++
	}
	if c.scan < len(c.block) && c.block[c.scan].Doc == d {
		return c.block[c.scan].TF, true
	}
	return 0, false
}

// ensureDecoded reads the current block's postings, stepping over their
// positions.
func (c *TermCursor) ensureDecoded() {
	if c.decoded == c.bi {
		return
	}
	n := v3BlockLen(c.bi, c.df)
	r := c.opened
	r.seek(c.skips, c.bi)
	block, err := r.read(n, slices.Grow(c.block[:0], n), nil)
	mustRead(err)
	c.block, c.decoded, c.scan = block, c.bi, 0
	c.scanned += int64(n)
}
