package index

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
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
// Segments exist in two physical states behind one API:
//
//   - built: Terms holds every posting list in memory (Builder, Merge and
//     Restrict produce these);
//   - lazy: the segment was decoded from its encoded bytes and holds only
//     those bytes plus a block index; Postings decodes a single term's
//     list on first use and memoizes it.
//
// Both states are safe for concurrent readers. A segment must not be
// mutated after it is shared (the memoized views assume immutability).
type Segment struct {
	Gen     uint64
	Terms   map[string]PostingList // materialized postings; nil for lazy segments
	DocLens map[DocID]uint32       // analyzed token count per covered document

	mu      sync.RWMutex
	sorted  []string               // memoized TermsSorted result
	lazy    *lazySegment           // non-nil iff decoded from encoded bytes
	size    int64                  // memoized SizeBytes result (0 = not yet computed)
	cursors map[string]*cursorMeta // memoized per-term skip metadata (Cursor)
}

// NewSegment returns an empty segment with the given generation.
func NewSegment(gen uint64) *Segment {
	return &Segment{
		Gen:     gen,
		Terms:   make(map[string]PostingList),
		DocLens: make(map[DocID]uint32),
	}
}

// Builder accumulates documents into a segment. It allocates per
// document and per build, not per posting or per term: one term index,
// each document's positions cut from one arena, every posting appended
// to one slice in arrival order, and at Build one backing array that
// every term's list is a window of, each sorted by DocID.
type Builder struct {
	seg      *Segment         // Gen and DocLens; Terms is filled at Build
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
	return &Builder{seg: NewSegment(gen), index: make(map[string]int32)}
}

// Add analyzes and indexes one document. Re-adding a DocID replaces its
// postings within this builder.
func (b *Builder) Add(doc DocID, text string) {
	if _, dup := b.seg.DocLens[doc]; dup {
		b.posts = slices.DeleteFunc(b.posts, func(p builderPosting) bool { return p.Doc == doc })
	}
	if b.adds > 0 && doc <= b.last {
		b.unsorted = true
	}
	b.adds++
	b.last = doc
	stamp := b.adds // distinct per Add, never the zero a new term starts at
	tokens := Analyze(text)
	b.seg.DocLens[doc] = uint32(len(tokens))
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
func (b *Builder) DocCount() int { return len(b.seg.DocLens) }

// Build finalizes and returns the segment. The builder must not be used
// afterwards.
func (b *Builder) Build() *Segment {
	seg := b.seg
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
	seg.Terms = make(map[string]PostingList, len(b.terms))
	for t, start := range ends {
		end := len(all)
		if t+1 < len(ends) {
			end = ends[t+1]
		}
		if start == end {
			continue // every posting belonged to a re-added document
		}
		pl := all[start:end:end]
		if b.unsorted {
			slices.SortFunc(pl, func(x, y Posting) int { return cmp.Compare(x.Doc, y.Doc) })
		}
		seg.Terms[b.terms[t].term] = pl
	}
	*b = Builder{}
	return seg
}

// TermsSorted returns the segment's terms in lexicographic order. The
// slice is computed once and memoized (segments are immutable); callers
// must not modify it.
func (s *Segment) TermsSorted() []string {
	s.mu.RLock()
	sorted := s.sorted
	s.mu.RUnlock()
	if sorted != nil {
		return sorted
	}
	var out []string
	if s.lazy != nil {
		out = make([]string, 0, s.lazy.nterms)
		dict := s.lazy.dict
		for len(dict) > 0 {
			e, rest, err := nextDictEntryV3(dict)
			if err != nil {
				break // dict region is validated at decode; defensive only
			}
			out = append(out, string(e.term))
			dict = rest
		}
	} else {
		out = make([]string, 0, len(s.Terms))
		for t := range s.Terms {
			out = append(out, t)
		}
		sort.Strings(out)
	}
	s.mu.Lock()
	s.sorted = out
	s.mu.Unlock()
	return out
}

// NumTerms returns the number of distinct terms in the segment without
// decoding any postings.
func (s *Segment) NumTerms() int {
	if s.lazy != nil {
		return s.lazy.nterms
	}
	return len(s.Terms)
}

// Postings returns the posting list for a term (nil if absent). On a lazy
// segment only the requested term's list is decoded; the result is
// memoized so repeated lookups are map-hit cheap. Decode errors are
// unreachable for segments produced by DecodeSegment (which structurally
// validates both regions up front); defensively they surface as an absent
// term here and as an error from Validate.
func (s *Segment) Postings(term string) PostingList {
	if s.lazy == nil {
		return s.Terms[term]
	}
	s.mu.RLock()
	pl, ok := s.lazy.cache[term]
	s.mu.RUnlock()
	if ok {
		return pl
	}
	pl, found, err := s.lazy.lookup(term)
	if err != nil || !found {
		return nil
	}
	s.mu.Lock()
	if s.lazy.cache == nil {
		s.lazy.cache = make(map[string]PostingList)
	}
	// Re-check under the write lock: postingsMap may have installed a
	// complete cache while our lookup ran, and maps it has handed out are
	// iterated without the lock — they must never be written again. A
	// complete cache always already holds this term, so skipping the
	// duplicate write preserves that invariant.
	if cached, ok := s.lazy.cache[term]; ok {
		s.mu.Unlock()
		return cached
	}
	s.lazy.cache[term] = pl
	s.mu.Unlock()
	return pl
}

// postingsMap returns the complete term → postings view, fully decoding a
// lazy segment (Merge, Validate, and compaction need every list). The
// decoded map is memoized as the lazy segment's cache.
func (s *Segment) postingsMap() (map[string]PostingList, error) {
	if s.lazy == nil {
		return s.Terms, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.lazy.cache) == s.lazy.nterms {
		return s.lazy.cache, nil
	}
	m, err := s.lazy.decodeAll()
	if err != nil {
		return nil, err
	}
	s.lazy.cache = m
	return m, nil
}

// Covers reports whether the segment indexes (or tombstones) a document.
func (s *Segment) Covers(doc DocID) bool {
	_, ok := s.DocLens[doc]
	return ok
}

// Per-entry constants for SizeBytes: a map entry's bucket overhead, one
// Posting struct (Doc + TF + the Positions slice header), and one DocLens
// entry. Approximations of the amd64 in-memory footprint.
const (
	sizeMapEntry = 48
	sizePosting  = 40
	sizeDocLen   = 16
)

// SizeBytes estimates the segment's resident memory footprint. Cache
// eviction budgets are charged against it, so it is deliberately cheap
// and stable: a lazy segment is charged its raw encoding (posting
// lists or blocks a query later decodes and memoizes are NOT tracked —
// they can exceed the varint-packed raw bytes by a small constant
// factor, so the budget bounds the encoded working set, not every
// decoded view), a built segment its materialized posting lists. A lazy
// segment additionally carries the materialized sorted-doc slice (bitmap
// ordinal → DocID) for block-granular decoding, so that is charged too.
// Segments are immutable once shared, so the walk runs once and is
// memoized.
func (s *Segment) SizeBytes() int64 {
	s.mu.RLock()
	size := s.size
	s.mu.RUnlock()
	if size != 0 {
		return size
	}
	size = int64(len(s.DocLens)) * sizeDocLen
	s.mu.RLock()
	lazy := s.lazy
	s.mu.RUnlock()
	if lazy != nil {
		size += int64(len(lazy.raw)) + int64(len(lazy.docsSorted))*4
	} else {
		for term, pl := range s.Terms {
			size += int64(len(term)) + sizeMapEntry + int64(len(pl))*sizePosting
			for i := range pl {
				size += int64(len(pl[i].Positions)) * 4
			}
		}
	}
	if size == 0 {
		size = 1 // empty segments still occupy a cache slot
	}
	s.mu.Lock()
	s.size = size
	s.mu.Unlock()
	return size
}

var errCorruptSegment = errors.New("index: corrupt segment encoding")

// dictBlockSize is the number of terms per dictionary block. Lookups
// binary-search the block index, then scan at most one block; postings
// byte offsets accumulate within the block.
const dictBlockSize = 64

// Encode serializes the segment deterministically (sorted terms and doc
// IDs) in the block-max layout, so that every honest worker bee produces
// byte-identical segments — the property commit–reveal voting relies on.
// A lazily decoded segment returns a copy of its original bytes (decode →
// encode is exactly the identity). See docs/segment-format.md for the
// byte layout.
func (s *Segment) Encode() []byte {
	s.mu.RLock()
	if s.lazy != nil {
		raw := s.lazy.raw
		s.mu.RUnlock()
		return append([]byte(nil), raw...)
	}
	s.mu.RUnlock()
	return s.encodeV3()
}

// DecodeSegment parses an encoded segment into a lazy one whose posting
// lists decode on demand. There is one format: bytes that do not start
// with its magic — including the retired 0x5153/0x5154 layouts — fail
// loudly rather than being guessed at.
func DecodeSegment(data []byte) (*Segment, error) {
	magic, n := binary.Uvarint(data)
	if n <= 0 || magic != segmentMagic {
		return nil, errCorruptSegment
	}
	return decodeSegmentV3(data, data[n:])
}

// lazySegment is the in-memory view of an encoded segment: raw bytes, a
// parsed block index, and sub-slices for the dictionary and postings
// regions. Individual posting lists are decoded on demand.
type lazySegment struct {
	raw    []byte // the full original encoding (Encode returns a copy)
	blocks []lazyBlock
	dict   []byte // dictionary region (see nextDictEntryV3)
	posts  []byte // postings region: concatenated posting blobs
	nterms int

	docsSorted []DocID // covered docs ascending (bitmap ordinals)

	cache map[string]PostingList // memoized decoded lists (guarded by Segment.mu)
}

type lazyBlock struct {
	firstTerm []byte // aliases raw
	dictOff   int    // byte offset of the block's first dict entry
	postOff   int    // byte offset of the block's first postings blob
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

// Validate checks internal consistency: decodable, sorted postings and
// every posting doc covered by DocLens.
func (s *Segment) Validate() error {
	terms, err := s.postingsMap()
	if err != nil {
		return err
	}
	for term, pl := range terms {
		if err := pl.sortCheck(); err != nil {
			return fmt.Errorf("term %q: %w", term, err)
		}
		for _, p := range pl {
			if _, ok := s.DocLens[p.Doc]; !ok {
				return fmt.Errorf("index: term %q posting doc %d lacks doc length", term, p.Doc)
			}
			if p.TF == 0 {
				return fmt.Errorf("index: term %q doc %d zero TF", term, p.Doc)
			}
		}
	}
	return nil
}

// Restrict returns a segment holding only the terms keep accepts. The
// DocLens set is retained IN FULL: it is the segment's tombstone set,
// and a covered document must keep shadowing its older postings in
// every chain — even for terms the restricted view drops — or stale
// postings would resurface after later merges. Gen is preserved, so the
// restricted segment keeps its place in merge precedence.
//
// Only a built receiver shares its posting lists with the result
// (segments are immutable). A lazy receiver walks its dictionary once
// and decodes just the kept terms' lists, memoizing nothing on itself;
// if a kept list fails to decode (unreachable after DecodeSegment's
// validation) the receiver comes back unrestricted, so Merge skips it
// whole like any corrupt lazy segment.
//
// A shard's merged run only needs the terms that hash to that shard
// (queries route term → shard before ever reading a chain), so the
// bytes a merge rewrites shrink from the whole batch segment to the
// shard's share of it. Compaction applies the same keep-predicate inside
// MergeEncode rather than restricting each run first; MergeEncode's
// output is byte for byte that of merging the restricted runs.
func (s *Segment) Restrict(keep func(term string) bool) *Segment {
	out := NewSegment(s.Gen)
	if s.lazy == nil {
		for term, pl := range s.Terms {
			if keep(term) {
				out.Terms[term] = pl
			}
		}
	} else if err := s.lazy.decodeTerms(keep, out.Terms); err != nil {
		return s
	}
	for d, l := range s.DocLens {
		out.DocLens[d] = l
	}
	return out
}
