package index

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
)

// The segment format: the block-max layout. The shell is magic, gen, docs
// region, 64-term dictionary index, dict region, postings region; each
// dictionary entry carries per-block skip metadata — last DocID, end byte
// offset, and the Pareto frontier of (TF, docLen) pairs from which a
// block-max term score bound can be computed for any corpus stats — and
// dense terms (df ≥ ndocs/8) switch from delta-varint postings to a
// bitmap over the segment's sorted doc ordinals. Identifiers call it v3:
// it is the third layout this index has had, and the only one left. See
// docs/segment-format.md for the byte layout.
const (
	segmentMagic = 0x5155 // "QU"

	// postingsBlockSize is the number of postings per skip block. Skip
	// entries and block-max bounds are kept per block; WAND decodes or
	// skips whole blocks. Small blocks keep the decode floor of a top-k
	// query near k·blockSize postings (each winner drags in its whole
	// block), at the price of one ~6-byte skip entry per block — the
	// granularity where BenchmarkSearchScaling's 100×-corpus work bound
	// actually holds.
	postingsBlockSize = 8
)

// TFDL is one (term frequency, document length) pair. A block's skip
// entry stores the Pareto frontier of its postings' pairs: TermScore is
// monotone increasing in TF and decreasing in docLen, so the frontier
// (kept in strictly-ascending TF and strictly-ascending DL order) is
// exactly the set of pairs that can achieve the block maximum under some
// corpus stats, and max over it is an exact stats-independent bound.
type TFDL struct {
	TF uint32
	DL uint32
}

// BlockSkip is one parsed skip entry: the block's last document, its end
// byte offset (blob-relative for delta terms, stream-relative for bitmap
// terms), and the block's score-bound frontier.
type BlockSkip struct {
	LastDoc  DocID
	EndOff   int
	Frontier []TFDL
}

// v3BlockLen returns the number of postings in block bi of a df-long
// list.
func v3BlockLen(bi, df int) int {
	if n := df - bi*postingsBlockSize; n < postingsBlockSize {
		return n
	}
	return postingsBlockSize
}

// sortedDocIDs returns the covered documents in ascending order.
func sortedDocIDs(docLens map[DocID]uint32) []DocID {
	docs := make([]DocID, 0, len(docLens))
	for d := range docLens {
		docs = append(docs, d)
	}
	slices.Sort(docs)
	return docs
}

// blockFrontier reduces a block's (TF, docLen) pairs to their Pareto
// frontier in place and returns the surviving subslice: TF strictly
// ascending, DL strictly ascending, last pair holding the block-max TF.
// A pair dominates another when its TF is ≥ and its DL is ≤; dominated
// pairs can never achieve the block maximum for any stats, so dropping
// them keeps the bound exact. Both the encoder and the decode-time
// validator use this, so the canonical form is enforced end to end.
func blockFrontier(pairs []TFDL) []TFDL {
	// Insertion sort by (TF, DL): a block holds at most postingsBlockSize
	// pairs, and this runs for every block of every encode and decode-time
	// validation, where sort.Slice's reflective swapper would allocate.
	for i := 1; i < len(pairs); i++ {
		p := pairs[i]
		j := i
		for ; j > 0 && (pairs[j-1].TF > p.TF || pairs[j-1].TF == p.TF && pairs[j-1].DL > p.DL); j-- {
			pairs[j] = pairs[j-1]
		}
		pairs[j] = p
	}
	// Keep the min-DL pair of each TF run.
	n := 0
	for i := range pairs {
		if n == 0 || pairs[i].TF != pairs[n-1].TF {
			pairs[n] = pairs[i]
			n++
		}
	}
	pairs = pairs[:n]
	// Right-to-left suffix-minima walk: a pair survives only if its DL is
	// strictly below every higher-TF survivor's.
	w := len(pairs)
	minDL := ^uint32(0)
	for i := len(pairs) - 1; i >= 0; i-- {
		if i == len(pairs)-1 || pairs[i].DL < minDL {
			w--
			pairs[w] = pairs[i]
			if pairs[w].DL < minDL {
				minDL = pairs[w].DL
			}
		}
	}
	return pairs[w:]
}

// v3Writer streams a segment into the v3 layout one term at a time, in
// ascending term order, and writes the shell last: the term count and
// the dictionary index precede the regions in the bytes but are known
// only once every term is in. Builder.Build and MergeEncode both write
// through it, so the two produce the same bytes for the same logical
// segment. Its buffers are reused across terms: a term costs appends to
// the dictionary and postings regions, not allocations of its own.
type v3Writer struct {
	docLens    map[DocID]uint32
	docsSorted []DocID

	dict, posts []byte
	blocks      []v3BlockMeta
	nterms      int

	// Per-term scratch: one block's (TF, docLen) pairs, and the term's
	// skip records with their frontiers packed into one slice.
	pairs     []TFDL
	skips     []v3Skip
	frontiers []TFDL
}

// v3BlockMeta is one dictionary-index record: a 64-term block's first
// term and where its entries and blobs start.
type v3BlockMeta struct {
	firstTerm string
	dictOff   int
	postOff   int
}

// v3Skip is one block's skip record while its term is being written;
// its frontier is frontiers[frLo:frHi].
type v3Skip struct {
	lastDoc    DocID
	endOff     int
	frLo, frHi int
}

func newV3Writer(docLens map[DocID]uint32, docsSorted []DocID) *v3Writer {
	return &v3Writer{docLens: docLens, docsSorted: docsSorted}
}

// addTerm encodes one term's dictionary entry and appends its postings
// blob straight into the postings region. Delta terms chain doc gaps
// across block boundaries (the blob is a run of (doc gap, TF, positions)
// records); bitmap terms emit a bitmap over the segment's doc ordinals
// followed by a (TF, positions) stream. docLen for frontier pairs falls
// back to 0 when the doc is not covered (0 only inflates the bound, which
// stays safe). pl must be non-empty and sorted, and terms must arrive in
// ascending order.
func (w *v3Writer) addTerm(term string, pl PostingList) {
	if w.nterms%dictBlockSize == 0 {
		w.blocks = append(w.blocks, v3BlockMeta{term, len(w.dict), len(w.posts)})
	}
	w.nterms++
	df := len(pl)
	enc := uint64(0)
	if df*8 >= len(w.docsSorted) && postingDocsCovered(pl, w.docLens) {
		enc = 1
	}

	blobStart := len(w.posts)
	bmStart := 0
	if enc == 1 {
		bmLen := (len(w.docsSorted) + 7) / 8
		w.posts = binary.AppendUvarint(w.posts, uint64(bmLen))
		bmStart = len(w.posts)
		w.posts = append(w.posts, make([]byte, bmLen)...)
	}
	// Skip end offsets are relative to the blob for delta terms and to
	// the stream after the bitmap for bitmap terms.
	streamStart := len(w.posts)
	w.skips, w.frontiers = w.skips[:0], w.frontiers[:0]
	prevDoc := uint64(0)
	ord := 0
	for lo := 0; lo < df; lo += postingsBlockSize {
		hi := min(lo+postingsBlockSize, df)
		w.pairs = w.pairs[:0]
		for _, p := range pl[lo:hi] {
			if enc == 0 {
				w.posts = binary.AppendUvarint(w.posts, uint64(p.Doc)-prevDoc)
				prevDoc = uint64(p.Doc)
			} else {
				for w.docsSorted[ord] < p.Doc {
					ord++
				}
				w.posts[bmStart+ord>>3] |= 1 << uint(ord&7)
				ord++
			}
			w.posts = binary.AppendUvarint(w.posts, uint64(p.TF))
			w.posts = appendPositions(w.posts, p.Positions)
			w.pairs = append(w.pairs, TFDL{p.TF, w.docLens[p.Doc]})
		}
		frLo := len(w.frontiers)
		w.frontiers = append(w.frontiers, blockFrontier(w.pairs)...)
		w.skips = append(w.skips, v3Skip{pl[hi-1].Doc, len(w.posts) - streamStart, frLo, len(w.frontiers)})
	}

	w.dict = binary.AppendUvarint(w.dict, uint64(len(term)))
	w.dict = append(w.dict, term...)
	w.dict = binary.AppendUvarint(w.dict, enc)
	w.dict = binary.AppendUvarint(w.dict, uint64(df))
	w.dict = binary.AppendUvarint(w.dict, uint64(len(w.posts)-blobStart))
	prevLast, prevEnd := uint64(0), 0
	for _, sk := range w.skips {
		w.dict = binary.AppendUvarint(w.dict, uint64(sk.lastDoc)-prevLast)
		w.dict = binary.AppendUvarint(w.dict, uint64(sk.endOff-prevEnd))
		prevLast, prevEnd = uint64(sk.lastDoc), sk.endOff
		fr := w.frontiers[sk.frLo:sk.frHi]
		w.dict = binary.AppendUvarint(w.dict, uint64(len(fr)))
		for _, p := range fr {
			w.dict = binary.AppendUvarint(w.dict, uint64(p.TF))
			w.dict = binary.AppendUvarint(w.dict, uint64(p.DL))
		}
	}
}

// finish writes the shell — magic, gen, docs region, term count, block
// index — around the dictionary and postings regions and returns the
// encoding.
func (w *v3Writer) finish(gen uint64) []byte {
	// An upper bound on the size: seven shell varints (magic, gen, doc
	// count, term count, block count, the two region lengths), two per
	// document and three per block besides its first term.
	size := 7*binary.MaxVarintLen64 + 2*binary.MaxVarintLen32*len(w.docsSorted) + len(w.dict) + len(w.posts)
	for _, b := range w.blocks {
		size += len(b.firstTerm) + 3*binary.MaxVarintLen64
	}
	out := make([]byte, 0, size)
	out = binary.AppendUvarint(out, segmentMagic)
	out = binary.AppendUvarint(out, gen)
	out = binary.AppendUvarint(out, uint64(len(w.docsSorted)))
	prev := uint64(0)
	for _, d := range w.docsSorted {
		out = binary.AppendUvarint(out, uint64(d)-prev)
		prev = uint64(d)
		out = binary.AppendUvarint(out, uint64(w.docLens[d]))
	}
	out = binary.AppendUvarint(out, uint64(w.nterms))
	if w.nterms == 0 {
		return out
	}
	out = binary.AppendUvarint(out, uint64(len(w.blocks)))
	for _, b := range w.blocks {
		out = binary.AppendUvarint(out, uint64(len(b.firstTerm)))
		out = append(out, b.firstTerm...)
		out = binary.AppendUvarint(out, uint64(b.dictOff))
		out = binary.AppendUvarint(out, uint64(b.postOff))
	}
	out = binary.AppendUvarint(out, uint64(len(w.dict)))
	out = append(out, w.dict...)
	out = binary.AppendUvarint(out, uint64(len(w.posts)))
	return append(out, w.posts...)
}

// appendPositions emits npos followed by delta-encoded positions.
func appendPositions(out []byte, positions []uint32) []byte {
	out = binary.AppendUvarint(out, uint64(len(positions)))
	prev := uint64(0)
	for _, pos := range positions {
		out = binary.AppendUvarint(out, uint64(pos)-prev)
		prev = uint64(pos)
	}
	return out
}

// postingDocsCovered reports whether every posting doc has a length
// entry — the precondition for bitmap encoding (the bitmap indexes into
// the sorted covered-doc list).
func postingDocsCovered(pl PostingList, docLens map[DocID]uint32) bool {
	for _, p := range pl {
		if _, ok := docLens[p.Doc]; !ok {
			return false
		}
	}
	return true
}

// decodeDocLensOrdered parses the docs region into the length map and
// also returns the doc IDs in encounter order, enforcing the strictly
// ascending order v3 bitmaps index into. It returns the remaining bytes.
func decodeDocLensOrdered(data []byte, into map[DocID]uint32) ([]byte, []DocID, error) {
	ndocs, n := binary.Uvarint(data)
	if n <= 0 || ndocs > uint64(len(data))/2 {
		return nil, nil, errCorruptSegment
	}
	data = data[n:]
	docs := make([]DocID, 0, ndocs)
	prev := uint64(0)
	for i := uint64(0); i < ndocs; i++ {
		gap, n := binary.Uvarint(data)
		if n <= 0 || (i > 0 && gap == 0) || gap > 1<<32-1 {
			return nil, nil, errCorruptSegment
		}
		data = data[n:]
		doc := prev + gap
		if doc > 1<<32-1 {
			return nil, nil, errCorruptSegment
		}
		prev = doc
		dl, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, nil, errCorruptSegment
		}
		data = data[n:]
		into[DocID(doc)] = uint32(dl)
		docs = append(docs, DocID(doc))
	}
	return data, docs, nil
}

// openSegment parses raw's shell — magic, gen, docs region, block index
// and the two regions' extents — into a view, checking only what the
// parse itself needs; validateRegionsV3 walks the regions.
func openSegment(raw []byte) (*Segment, error) {
	magic, n := binary.Uvarint(raw)
	if n <= 0 || magic != segmentMagic {
		return nil, errCorruptSegment
	}
	data := raw[n:]
	gen, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errCorruptSegment
	}
	data = data[n:]

	docLens := make(map[DocID]uint32)
	data, docsSorted, err := decodeDocLensOrdered(data, docLens)
	if err != nil {
		return nil, err
	}

	nterms, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errCorruptSegment
	}
	data = data[n:]
	seg := &Segment{Gen: gen, DocLens: docLens, raw: raw, docsSorted: docsSorted}
	if nterms == 0 {
		if len(data) != 0 {
			return nil, errCorruptSegment
		}
		return seg, nil
	}
	// Counts are untrusted until the regions are walked: bound them by
	// what the remaining bytes could possibly hold (a dict entry is ≥ 2
	// bytes, a block-index record ≥ 3) before any count-sized allocation.
	if nterms > uint64(len(data))/2 {
		return nil, errCorruptSegment
	}

	nblocks, n := binary.Uvarint(data)
	if n <= 0 || nblocks == 0 || nblocks > nterms || nblocks > uint64(len(data))/3 {
		return nil, errCorruptSegment
	}
	data = data[n:]
	blocks := make([]dictBlock, 0, nblocks)
	for i := uint64(0); i < nblocks; i++ {
		tlen, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < tlen {
			return nil, errCorruptSegment
		}
		first := data[n : n+int(tlen)]
		data = data[n+int(tlen):]
		dictOff, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errCorruptSegment
		}
		data = data[n:]
		postOff, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errCorruptSegment
		}
		data = data[n:]
		blocks = append(blocks, dictBlock{firstTerm: first, dictOff: int(dictOff), postOff: int(postOff)})
	}

	dictLen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < dictLen {
		return nil, errCorruptSegment
	}
	dict := data[n : n+int(dictLen)]
	data = data[n+int(dictLen):]
	postLen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < postLen {
		return nil, errCorruptSegment
	}
	posts := data[n : n+int(postLen)]
	if len(data[n+int(postLen):]) != 0 {
		return nil, errCorruptSegment
	}

	seg.blocks, seg.dict, seg.posts, seg.nterms = blocks, dict, posts, int(nterms)
	return seg, nil
}

// dictEntryV3 is one parsed v3 dictionary entry header and its postings
// blob. skipsRaw is the undecoded skip-entry window (aliasing the dict
// region); readSkips turns it into []BlockSkip.
type dictEntryV3 struct {
	term     []byte
	enc      uint64 // 0 = delta blocks, 1 = bitmap
	df       int
	skipsRaw []byte
	blob     []byte
}

// dictWalk steps through a dictionary region entry by entry, cutting each
// entry's postings blob off the front of the postings region beside it.
type dictWalk struct {
	dict, posts []byte // the unread entries and blobs
}

// next parses the next entry into e. Its skip entries are checked and
// stepped over, or parsed into skips when that is non-nil.
func (w *dictWalk) next(e *dictEntryV3, skips *skipBuf) error {
	dict := w.dict
	tlen, n := binary.Uvarint(dict)
	if n <= 0 || uint64(len(dict)-n) < tlen {
		return errCorruptSegment
	}
	e.term = dict[n : n+int(tlen)]
	dict = dict[n+int(tlen):]
	enc, n := binary.Uvarint(dict)
	if n <= 0 || enc > 1 {
		return errCorruptSegment
	}
	dict = dict[n:]
	df, n := binary.Uvarint(dict)
	if n <= 0 || df == 0 || df > 1<<31 {
		return errCorruptSegment
	}
	dict = dict[n:]
	blobLen, n := binary.Uvarint(dict)
	if n <= 0 || blobLen > uint64(len(w.posts)) {
		return errCorruptSegment
	}
	dict = dict[n:]
	e.enc, e.df = enc, int(df)
	rest, err := readSkips(dict, e.df, skips)
	if err != nil {
		return err
	}
	e.skipsRaw = dict[:len(dict)-len(rest)]
	e.blob, w.posts = w.posts[:blobLen], w.posts[blobLen:]
	w.dict = rest
	return nil
}

// skipBuf receives parsed skip entries, their frontiers packed into frs.
type skipBuf struct {
	skips []BlockSkip
	frs   []TFDL
}

// readSkips parses the skip entries of a df-long list off the front of b
// and returns the rest; it is their only parser. It enforces the
// invariants cursors rely on: last DocIDs strictly ascending and 32-bit,
// end offsets strictly ascending, and each frontier one to block-length
// pairs in canonical (TF and DL both strictly ascending) order. A nil
// into only steps over the entries, allocating nothing; otherwise into's
// buffers are reset and filled.
func readSkips(b []byte, df int, into *skipBuf) ([]byte, error) {
	nskips := (df + postingsBlockSize - 1) / postingsBlockSize
	if into != nil {
		into.skips = slices.Grow(into.skips[:0], nskips)
		into.frs = into.frs[:0]
	}
	lastDoc, endOff := uint64(0), 0
	for i := 0; i < nskips; i++ {
		gap, n := binary.Uvarint(b)
		if n <= 0 || (i > 0 && gap == 0) || gap > 1<<32-1 {
			return nil, errCorruptSegment
		}
		b = b[n:]
		if lastDoc += gap; lastDoc > 1<<32-1 {
			return nil, errCorruptSegment
		}
		eo, n := binary.Uvarint(b)
		if n <= 0 || eo == 0 || eo > 1<<31 {
			return nil, errCorruptSegment
		}
		b = b[n:]
		endOff += int(eo)
		np, n := binary.Uvarint(b)
		if n <= 0 || np == 0 || np > uint64(v3BlockLen(i, df)) {
			return nil, errCorruptSegment
		}
		b = b[n:]
		var prev TFDL
		lo := 0
		if into != nil {
			lo = len(into.frs)
		}
		for j := uint64(0); j < np; j++ {
			tf, n := binary.Uvarint(b)
			if n <= 0 || tf > 1<<32-1 {
				return nil, errCorruptSegment
			}
			b = b[n:]
			dl, n := binary.Uvarint(b)
			if n <= 0 || dl > 1<<32-1 {
				return nil, errCorruptSegment
			}
			b = b[n:]
			p := TFDL{uint32(tf), uint32(dl)}
			if j > 0 && (p.TF <= prev.TF || p.DL <= prev.DL) {
				return nil, errCorruptSegment
			}
			prev = p
			if into != nil {
				into.frs = append(into.frs, p)
			}
		}
		if into != nil {
			// An earlier entry's frontier outlives a move of frs: it keeps
			// the old array, which holds the same pairs.
			fr := into.frs[lo:len(into.frs):len(into.frs)]
			into.skips = append(into.skips, BlockSkip{LastDoc: DocID(lastDoc), EndOff: endOff, Frontier: fr})
		}
	}
	return b, nil
}

// postingReader reads one term's posting records, and is their only
// parser: a doc gap (delta terms) or the next set bit of the bitmap over
// the segment's doc ordinals (bitmap terms), then TF, position count and
// delta-coded positions. It checks every record as it reads it: no zero
// gap after the list's first record, DocIDs and TFs within 32 bits, a set
// bit for each bitmap record, well-formed varints. Validation, whole-list
// decoding and the cursor's block decode all read through it, a block or
// a list at a time.
type postingReader struct {
	enc        uint64
	bitmap     []byte  // bitmap terms: one bit per covered doc
	docsSorted []DocID // bitmap ordinal → DocID
	stream     []byte  // the records; skip end offsets index into it
	rest       []byte  // the unread records
	prevDoc    uint64  // the last record's DocID
	started    bool    // a record has been read: later gaps must be > 0
	ord        int     // bitmap terms: the next ordinal to test
}

// open points r at the first record of a term's blob, splitting off a
// bitmap term's bitmap, whose length prefix must be the segment's doc
// count in bytes.
func (r *postingReader) open(blob []byte, enc uint64, docsSorted []DocID) error {
	*r = postingReader{enc: enc, docsSorted: docsSorted, stream: blob, rest: blob}
	if enc == 1 {
		bmLen, n := binary.Uvarint(blob)
		if n <= 0 || bmLen != uint64((len(docsSorted)+7)/8) || uint64(len(blob)-n) < bmLen {
			return errCorruptSegment
		}
		r.bitmap, r.stream = blob[n:n+int(bmLen)], blob[n+int(bmLen):]
		r.rest = r.stream
	}
	return nil
}

// seek moves the reader to the first record of block bi. Past block 0 a
// delta block's gap chain resumes from the previous block's last DocID;
// a bitmap block's ordinal is found by binary search for it (itself a
// set bit).
func (r *postingReader) seek(skips []BlockSkip, bi int) {
	if bi == 0 {
		r.rest, r.prevDoc, r.started, r.ord = r.stream, 0, false, 0
		return
	}
	sk := skips[bi-1]
	r.rest, r.prevDoc, r.started = r.stream[sk.EndOff:], uint64(sk.LastDoc), true
	if r.enc == 1 {
		r.ord = sort.Search(len(r.docsSorted), func(i int) bool { return r.docsSorted[i] >= sk.LastDoc }) + 1
	}
}

// off is the stream offset of the next record.
func (r *postingReader) off() int { return len(r.stream) - len(r.rest) }

// read appends the next n records to out. With a non-nil arena every
// record's positions are decoded onto it and its Positions is a window of
// it; with a nil arena they are stepped over by counting varint
// terminators, which only bytes that passed validation may use.
func (r *postingReader) read(n int, out PostingList, arena *[]uint32) (PostingList, error) {
	b, doc, ord := r.rest, r.prevDoc, r.ord
	delta, bitmap, docsSorted := r.enc == 0, r.bitmap, r.docsSorted
	minGap := uint64(0)
	if r.started {
		minGap = 1
	}
	var a []uint32
	if arena != nil {
		a = *arena
	}
	for i := 0; i < n; i++ {
		if delta {
			gap, k := binary.Uvarint(b)
			if k <= 0 || gap < minGap || gap > 1<<32-1 {
				return nil, errCorruptSegment
			}
			b = b[k:]
			if doc += gap; doc > 1<<32-1 {
				return nil, errCorruptSegment
			}
			minGap = 1
		} else {
			for ord < len(docsSorted) && bitmap[ord>>3]&(1<<uint(ord&7)) == 0 {
				ord++
			}
			if ord >= len(docsSorted) {
				return nil, errCorruptSegment
			}
			doc = uint64(docsSorted[ord])
			ord++
		}
		tf, k := binary.Uvarint(b)
		if k <= 0 || tf > 1<<32-1 {
			return nil, errCorruptSegment
		}
		b = b[k:]
		npos, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, errCorruptSegment
		}
		b = b[k:]
		var positions []uint32
		if arena == nil {
			j := 0
			for ; npos > 0 && j < len(b); j++ {
				if b[j] < 0x80 {
					npos--
				}
			}
			if npos > 0 {
				return nil, errCorruptSegment
			}
			b = b[j:]
		} else if npos > 0 {
			start, pos := len(a), uint64(0)
			for ; npos > 0; npos-- {
				gap, k := binary.Uvarint(b)
				if k <= 0 {
					return nil, errCorruptSegment
				}
				b = b[k:]
				pos += gap
				a = append(a, uint32(pos))
			}
			positions = a[start:len(a):len(a)]
		}
		out = append(out, Posting{Doc: DocID(doc), TF: uint32(tf), Positions: positions})
	}
	r.rest, r.prevDoc, r.ord, r.started = b, doc, ord, r.started || n > 0
	if arena != nil {
		*arena = a
	}
	return out, nil
}

// decodeList decodes a term's whole posting list, with positions,
// appending the postings to pl[:0] and every posting's positions to one
// arena, arena[:0]; it returns both buffers. Nil buffers come back freshly
// allocated at their exact sizes (one list and one arena per term,
// however many postings it holds); a caller that consumes each list
// before decoding the next passes the previous call's buffers back in.
// e must be an entry of an opened segment, whose lists always read.
func decodeList(e *dictEntryV3, docsSorted []DocID, pl PostingList, arena []uint32) (PostingList, []uint32) {
	var r postingReader
	mustRead(r.open(e.blob, e.enc, docsSorted))
	// Every varint ends in the one byte of it below 0x80, so the stream's
	// position count is its varint count less each record's other fields:
	// TF, count and, for delta terms, the gap.
	npositions := -int(3-e.enc) * e.df
	for _, c := range r.stream {
		if c < 0x80 {
			npositions++
		}
	}
	arena = slices.Grow(arena[:0], max(npositions, 0))
	pl, err := r.read(e.df, slices.Grow(pl[:0], e.df), &arena)
	mustRead(err)
	return pl, arena
}

// validateRegionsV3 walks a segment's dictionary and postings regions once
// at decode time: dictionary entries must parse with strictly sorted terms
// and a count matching nterms, blob lengths must tile the postings region
// exactly, each block-index record must agree exactly with the walk (its
// first term and both offsets land on the entry the walk reaches at that
// stride) so lookups can trust the index, and every term's records must
// read (checkPostingsV3). DecodeSegment therefore fails loudly on any
// structural or metadata lie (a byzantine worker's digest covers its
// corrupt bytes, so hash verification alone can't catch one); the walk
// materializes no posting list, so first-use decoding keeps the
// allocation win.
func validateRegionsV3(seg *Segment) error {
	w := dictWalk{dict: seg.dict, posts: seg.posts}
	var prev []byte
	count := 0
	var e dictEntryV3
	var sc checkScratch
	for len(w.dict) > 0 {
		dictOff, postOff := len(seg.dict)-len(w.dict), len(seg.posts)-len(w.posts)
		if err := w.next(&e, &sc.skips); err != nil {
			return err
		}
		if count%dictBlockSize == 0 {
			bi := count / dictBlockSize
			if bi >= len(seg.blocks) {
				return errCorruptSegment
			}
			b := seg.blocks[bi]
			if b.dictOff != dictOff || b.postOff != postOff || !bytes.Equal(b.firstTerm, e.term) {
				return errCorruptSegment
			}
		}
		if count > 0 && bytes.Compare(prev, e.term) >= 0 {
			return errCorruptSegment
		}
		if err := checkPostingsV3(&e, seg, &sc); err != nil {
			return err
		}
		prev = e.term
		count++
	}
	if count != seg.nterms || len(w.posts) != 0 || (count+dictBlockSize-1)/dictBlockSize != len(seg.blocks) {
		return errCorruptSegment
	}
	return nil
}

// checkScratch is validation's per-term buffers, reused across terms.
type checkScratch struct {
	skips     skipBuf
	block     PostingList
	positions []uint32
	pairs     []TFDL
}

// checkPostingsV3 reads one term's records a block at a time and requires
// each block's last DocID, end offset and canonical frontier to equal its
// parsed skip entry (sc.skips), and no bytes after the last block. It
// adds only what the reader cannot know: that agreement, and that a
// bitmap's set bits number exactly df and none lies past the doc count.
func checkPostingsV3(e *dictEntryV3, seg *Segment, sc *checkScratch) error {
	var r postingReader
	err := r.open(e.blob, e.enc, seg.docsSorted)
	if err != nil {
		return err
	}
	if e.enc == 1 {
		pop := 0
		for _, b := range r.bitmap {
			pop += bits.OnesCount8(b)
		}
		if pop != e.df {
			return errCorruptSegment
		}
		for ord := len(seg.docsSorted); ord < len(r.bitmap)*8; ord++ {
			if r.bitmap[ord>>3]&(1<<uint(ord&7)) != 0 {
				return errCorruptSegment
			}
		}
	}
	for bi, sk := range sc.skips.skips {
		if sc.block, err = r.read(v3BlockLen(bi, e.df), sc.block[:0], &sc.positions); err != nil {
			return err
		}
		sc.positions, sc.pairs = sc.positions[:0], sc.pairs[:0]
		for _, p := range sc.block {
			sc.pairs = append(sc.pairs, TFDL{p.TF, seg.DocLens[p.Doc]})
		}
		if sk.LastDoc != sc.block[len(sc.block)-1].Doc || sk.EndOff != r.off() || !slices.Equal(sk.Frontier, blockFrontier(sc.pairs)) {
			return errCorruptSegment
		}
	}
	if len(r.rest) != 0 {
		return errCorruptSegment
	}
	return nil
}

// findV3 locates a term's v3 dictionary entry and postings blob without
// decoding any postings: binary search the block index, scan at most one
// 64-term block.
func (s *Segment) findV3(term string) (e dictEntryV3, found bool) {
	bi := sort.Search(len(s.blocks), func(i int) bool {
		return cmpBytesString(s.blocks[i].firstTerm, term) > 0
	}) - 1
	if bi < 0 {
		return e, false
	}
	b := s.blocks[bi]
	dictEnd := len(s.dict)
	if bi+1 < len(s.blocks) {
		dictEnd = s.blocks[bi+1].dictOff
	}
	w := dictWalk{dict: s.dict[b.dictOff:dictEnd], posts: s.posts[b.postOff:]}
	for len(w.dict) > 0 {
		mustRead(w.next(&e, nil))
		switch c := cmpBytesString(e.term, term); {
		case c == 0:
			return e, true
		case c > 0:
			return e, false
		}
	}
	return e, false
}
