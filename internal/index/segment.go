package index

import (
	"cmp"
	"errors"
	"slices"
	"strings"
	"sync"
)

// Segment is an immutable inverted-index fragment: the postings produced
// by indexing one batch of documents. Worker bees build one delta segment
// per publish task; shards hold a chain of segments merged on read or by
// compaction. Gen orders segments: postings in a higher-Gen segment
// supersede a lower-Gen segment's postings for the same document, and a
// segment's DocLens set doubles as its tombstone set (any doc re-indexed
// here shadows its older postings everywhere, even for terms the new
// version no longer contains).
//
// A segment is a view over its encoding (docs/segment-format.md):
// Builder, Merge and DecodeSegment all return one holding the encoded
// bytes and the parsed document list and dictionary index. Postings
// decodes a single term's list on first use and memoizes it; Cursor
// decodes block by block. Both, like DecodeSegment's validation and the
// merge kernel, read posting records through one reader and skip entries
// through one parser.
//
// Every read of a segment succeeds. Only DecodeSegment, which first reads
// every region through those same readers, and openWritten, over bytes
// the encoder has just written, construct one, and its bytes never
// change afterwards; so no read method returns an error, and a read that
// fails anyway is a broken invariant and panics (mustRead).
//
// Segments are safe for concurrent readers. A segment must not be
// mutated after it is shared (the memoized views assume immutability).
type Segment struct {
	Gen     uint64
	DocLens map[DocID]uint32 // analyzed token count per covered document

	raw        []byte // the full encoding (Encode returns a copy)
	blocks     []dictBlock
	dict       []byte  // dictionary region (see dictWalk)
	posts      []byte  // postings region: concatenated posting blobs
	nterms     int     // dictionary entries
	docsSorted []DocID // covered docs ascending (bitmap ordinals)

	mu      sync.RWMutex
	lists   map[string]PostingList // memoized Postings results
	cursors map[string]*cursorMeta // memoized per-term skip metadata (Cursor)
}

// dictBlock is one dictionary-index record: a 64-term block's first term
// and where its entries and blobs start.
type dictBlock struct {
	firstTerm []byte // aliases raw
	dictOff   int    // byte offset of the block's first dict entry
	postOff   int    // byte offset of the block's first postings blob
}

// NewSegment returns an empty segment with the given generation.
func NewSegment(gen uint64) *Segment {
	return openWritten(newV3Writer(nil, nil).finish(gen))
}

// Builder accumulates documents into a segment. It allocates per
// document and per build, not per posting or per term: one term index,
// each document's positions cut from one arena, every posting appended
// to one slice in arrival order, and at Build one backing array that
// every term's list is a window of, each sorted by DocID, which the
// encoder writes out term by term.
type Builder struct {
	gen      uint64
	docLens  map[DocID]uint32
	index    map[string]int32 // term → its entry in terms
	terms    []builderTerm
	posts    []builderPosting
	unsorted bool // a document arrived at or below the last one's DocID
	adds     int  // Add calls so far
	last     DocID

	// Per-document scratch: the terms the document holds, and each
	// token's term.
	docTerms []int32
	tokTerm  []int32
}

// builderTerm is one distinct term. tf and fill describe the document
// being added while stamp equals the builder's Add count.
type builderTerm struct {
	term     string
	stamp    int
	tf, fill uint32
}

// builderPosting is one posting and the term it belongs to.
type builderPosting struct {
	term int32
	Posting
}

// NewBuilder creates a segment builder with the given generation.
func NewBuilder(gen uint64) *Builder {
	return &Builder{gen: gen, docLens: make(map[DocID]uint32), index: make(map[string]int32)}
}

// Add analyzes and indexes one document. Re-adding a DocID replaces its
// postings within this builder.
func (b *Builder) Add(doc DocID, text string) {
	if _, dup := b.docLens[doc]; dup {
		b.posts = slices.DeleteFunc(b.posts, func(p builderPosting) bool { return p.Doc == doc })
	}
	if b.adds > 0 && doc <= b.last {
		b.unsorted = true
	}
	b.adds++
	b.last = doc
	stamp := b.adds // distinct per Add, never the zero a new term starts at
	tokens := Analyze(text)
	b.docLens[doc] = uint32(len(tokens))
	if cap(b.tokTerm) < len(tokens) {
		b.tokTerm = make([]int32, len(tokens))
	}
	tokTerm := b.tokTerm[:len(tokens)]
	b.docTerms = b.docTerms[:0]
	for k, tok := range tokens {
		ti, ok := b.index[tok.Term]
		if !ok {
			ti = int32(len(b.terms))
			b.index[tok.Term] = ti
			b.terms = append(b.terms, builderTerm{term: tok.Term})
		}
		t := &b.terms[ti]
		if t.stamp != stamp {
			t.stamp, t.tf = stamp, 0
			b.docTerms = append(b.docTerms, ti)
		}
		t.tf++
		tokTerm[k] = ti
	}
	arena := make([]uint32, len(tokens))
	off := uint32(0)
	for _, ti := range b.docTerms {
		t := &b.terms[ti]
		t.fill = off
		off += t.tf
	}
	for k, tok := range tokens {
		t := &b.terms[tokTerm[k]]
		arena[t.fill] = tok.Pos
		t.fill++
	}
	for _, ti := range b.docTerms {
		t := &b.terms[ti]
		b.posts = append(b.posts, builderPosting{ti, Posting{Doc: doc, TF: t.tf, Positions: arena[t.fill-t.tf : t.fill : t.fill]}})
	}
}

// DocCount returns the number of documents added so far.
func (b *Builder) DocCount() int { return len(b.docLens) }

// Build finalizes and returns the segment. The builder must not be used
// afterwards.
func (b *Builder) Build() *Segment {
	// Counting sort by term: ends[t] is where term t's window ends.
	ends := make([]int, len(b.terms))
	for _, p := range b.posts {
		ends[p.term]++
	}
	for t := 1; t < len(ends); t++ {
		ends[t] += ends[t-1]
	}
	all := make(PostingList, len(b.posts))
	for i := len(b.posts) - 1; i >= 0; i-- { // back to front keeps arrival order
		p := b.posts[i]
		ends[p.term]--
		all[ends[p.term]] = p.Posting
	}
	// ends[t] now marks where term t's window starts.
	window := func(t int32) PostingList {
		end := len(all)
		if int(t)+1 < len(ends) {
			end = ends[t+1]
		}
		return all[ends[t]:end:end]
	}
	order := make([]int32, 0, len(b.terms))
	for t := range b.terms {
		if len(window(int32(t))) > 0 { // else every posting belonged to a re-added document
			order = append(order, int32(t))
		}
	}
	slices.SortFunc(order, func(x, y int32) int { return strings.Compare(b.terms[x].term, b.terms[y].term) })
	w := newV3Writer(b.docLens, sortedDocIDs(b.docLens))
	for _, t := range order {
		pl := window(t)
		if b.unsorted {
			slices.SortFunc(pl, func(x, y Posting) int { return cmp.Compare(x.Doc, y.Doc) })
		}
		w.addTerm(b.terms[t].term, pl)
	}
	seg := openWritten(w.finish(b.gen))
	*b = Builder{}
	return seg
}

// TermsSorted returns the segment's terms in lexicographic order, walking
// the dictionary once per call.
func (s *Segment) TermsSorted() []string {
	out := make([]string, 0, s.nterms)
	var e dictEntryV3
	for w := (dictWalk{s.dict, s.posts}); len(w.dict) > 0; {
		mustRead(w.next(&e, nil))
		out = append(out, string(e.term))
	}
	return out
}

// NumTerms returns the number of distinct terms in the segment without
// decoding any postings.
func (s *Segment) NumTerms() int { return s.nterms }

// Postings returns the posting list for a term (nil if absent). Only the
// requested term's list is decoded; the result is memoized so repeated
// lookups are map-hit cheap.
func (s *Segment) Postings(term string) PostingList {
	s.mu.RLock()
	pl, ok := s.lists[term]
	s.mu.RUnlock()
	if ok {
		return pl
	}
	e, found := s.findV3(term)
	if !found {
		return nil
	}
	pl, _ = decodeList(&e, s.docsSorted, nil, nil)
	s.mu.Lock()
	if s.lists == nil {
		s.lists = make(map[string]PostingList)
	}
	s.lists[term] = pl
	s.mu.Unlock()
	return pl
}

// Covers reports whether the segment indexes (or tombstones) a document.
func (s *Segment) Covers(doc DocID) bool {
	_, ok := s.DocLens[doc]
	return ok
}

// sizeDocLen approximates one DocLens entry's amd64 in-memory footprint.
const sizeDocLen = 16

// SizeBytes estimates the segment's resident memory footprint. Cache
// eviction budgets are charged against it, so it is deliberately cheap
// and stable: the raw encoding, the sorted-doc slice (bitmap ordinal →
// DocID) that block-granular decoding reads, and the DocLens map. Lists
// a query later decodes and memoizes are NOT tracked — they can exceed
// the varint-packed raw bytes by a small constant factor, so the budget
// bounds the encoded working set, not every decoded view.
func (s *Segment) SizeBytes() int64 {
	return int64(len(s.raw)) + int64(len(s.docsSorted))*4 + int64(len(s.DocLens))*sizeDocLen
}

var errCorruptSegment = errors.New("index: corrupt segment encoding")

// dictBlockSize is the number of terms per dictionary block. Lookups
// binary-search the block index, then scan at most one block; postings
// byte offsets accumulate within the block.
const dictBlockSize = 64

// Encode returns a copy of the segment's encoding: deterministic (sorted
// terms and doc IDs) in the block-max layout, so that every honest worker
// bee produces byte-identical segments — the property commit–reveal
// voting relies on — and exactly the bytes a decoded segment was decoded
// from. See docs/segment-format.md for the byte layout.
func (s *Segment) Encode() []byte {
	return slices.Clone(s.raw)
}

// DecodeSegment parses an encoded segment into a view whose posting
// lists decode on demand, validating every region first: the bytes come
// from the network, and a byzantine writer's digest covers its own
// corrupt bytes. This is the trust boundary. Validation reads every
// posting record through the reader later reads use, and requires each
// skip entry to match the block it describes, so no later read of the
// view can fail. The view aliases data: the caller must not mutate data
// afterwards. There is one format: bytes that do not start with its
// magic — including the retired 0x5153/0x5154 layouts — fail loudly
// rather than being guessed at.
func DecodeSegment(data []byte) (*Segment, error) {
	seg, err := openSegment(data)
	if err != nil {
		return nil, err
	}
	if err := validateRegionsV3(seg); err != nil {
		return nil, err
	}
	return seg, nil
}

// openWritten opens bytes this process has just encoded from validated
// inputs (Builder.Build, Merge). It skips DecodeSegment's region walk,
// which such bytes pass by construction (TestOpenedViewsValidate).
func openWritten(raw []byte) *Segment {
	seg, err := openSegment(raw)
	mustRead(err)
	return seg
}

// mustRead panics on a failed read of a segment's bytes. Every segment
// is opened by DecodeSegment after it reads every region, or by
// openWritten over the encoder's own output, and its bytes never change,
// so an error here is a broken invariant, not bad input.
func mustRead(err error) {
	if err != nil {
		panic("index: an opened segment failed to read: " + err.Error())
	}
}

// cmpBytesString compares b to s lexicographically without allocating.
func cmpBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}
