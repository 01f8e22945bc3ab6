package index

import (
	"fmt"
	"math"
)

// Near-duplicate detection via w-shingling + MinHash, the defense against
// the paper's scraper-site attack: a site that mirrors popular content to
// farm honey produces a signature almost identical to the original's, so
// worker bees can demote it deterministically.

// DefaultShingleSize is the token-window width for shingling.
const DefaultShingleSize = 4

// DefaultSignatureSize is the number of MinHash components.
const DefaultSignatureSize = 64

// Shingles returns the set of hashed token k-grams of analyzed text.
func Shingles(text string, k int) map[uint64]bool {
	return shingleTokens(Analyze(text), k)
}

// shingleTokens is Shingles over an already analyzed token stream.
func shingleTokens(toks []Token, k int) map[uint64]bool {
	if k <= 0 {
		k = DefaultShingleSize
	}
	k = min(k, len(toks))
	if k == 0 {
		return make(map[uint64]bool)
	}
	out := make(map[uint64]bool, len(toks)-k+1)
	for i := 0; i+k <= len(toks); i++ {
		h := uint64(fnvOffset64)
		for _, t := range toks[i : i+k] {
			for j := 0; j < len(t.Term); j++ {
				h = (h ^ uint64(t.Term[j])) * fnvPrime64
			}
			h = (h ^ 0x1f) * fnvPrime64
		}
		out[h] = true
	}
	return out
}

// FNV-1a, 64-bit, as hash/fnv's New64a computes it, inlined over the
// term bytes: no hasher and no []byte conversion a shingle. Each term is
// followed by a 0x1f separator byte.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// MinHashSig is a fixed-length similarity signature.
type MinHashSig []uint64

// MinHash computes an n-component signature over a shingle set using
// n deterministic hash mixes of each shingle.
func MinHash(shingles map[uint64]bool, n int) MinHashSig {
	if n <= 0 {
		n = DefaultSignatureSize
	}
	sig := make(MinHashSig, n)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	if len(shingles) == 0 {
		return sig
	}
	for s := range shingles {
		for i := 0; i < n; i++ {
			h := mix64(s ^ (uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03))
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

// mix64 is a strong 64-bit finalizer (SplitMix64 variant).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Similarity estimates the Jaccard similarity of the underlying shingle
// sets from two signatures.
func (a MinHashSig) Similarity(b MinHashSig) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

// SignatureOf is the convenience path: shingle then MinHash with
// defaults.
func SignatureOf(text string) MinHashSig {
	return SignatureOfTokens(Analyze(text))
}

// SignatureOfTokens is SignatureOf for a caller that already holds
// Analyze(text) — the crawler counts those tokens for its simulated
// extract cost and must not analyze the page twice.
func SignatureOfTokens(toks []Token) MinHashSig {
	return MinHash(shingleTokens(toks, DefaultShingleSize), DefaultSignatureSize)
}

// DefaultBands is the band count SigIndex uses over a default-size
// signature: 16 bands of 4 rows. At the 0.85 scraper threshold the
// probability that a true near-duplicate shares no band is ~7e-6, so
// banding is a safe accelerator, not an approximation of the decision
// (candidates are always re-checked with the exact signature).
const DefaultBands = 16

// SigIndex is a banded locality-sensitive index over MinHash signatures:
// the streaming ingest pipeline adds every accepted page's signature and
// probes each new page against it, so near-duplicate detection over an
// N-page crawl costs O(N·candidates) instead of the O(N²) full scan the
// rank-time defense (zeroDuplicates) pays. Deterministic: candidates are
// compared in insertion order and ties keep the earliest key.
//
// Not safe for concurrent use; each crawl owns one.
type SigIndex struct {
	bands   int
	rows    int
	buckets []map[uint64][]int // per band: band-hash → ids
	sigs    []MinHashSig
	keys    []string
}

// NewSigIndex creates an index that slices signatures into the given
// number of bands (non-positive selects DefaultBands). Signatures added
// and probed must share one length, divisible by the band count.
func NewSigIndex(bands int) *SigIndex {
	if bands <= 0 {
		bands = DefaultBands
	}
	x := &SigIndex{bands: bands, buckets: make([]map[uint64][]int, bands)}
	for i := range x.buckets {
		x.buckets[i] = make(map[uint64][]int)
	}
	return x
}

// Len returns the number of indexed signatures.
func (x *SigIndex) Len() int { return len(x.sigs) }

// bandHash collapses one band of a signature to a bucket key.
func (x *SigIndex) bandHash(sig MinHashSig, band int) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range sig[band*x.rows : (band+1)*x.rows] {
		h = mix64(h ^ v)
	}
	return h
}

// Add indexes a signature under the given key and returns its id.
// The first Add fixes the signature length.
func (x *SigIndex) Add(key string, sig MinHashSig) int {
	x.checkLen(sig)
	id := len(x.sigs)
	x.sigs = append(x.sigs, sig)
	x.keys = append(x.keys, key)
	for b := 0; b < x.bands; b++ {
		h := x.bandHash(sig, b)
		x.buckets[b][h] = append(x.buckets[b][h], id)
	}
	return id
}

// Nearest returns the indexed key most similar to sig among candidates
// sharing at least one band, with the exact signature similarity. An
// empty index (or no candidate) returns ("", 0). Deterministic: on
// similarity ties the earliest-added key wins.
func (x *SigIndex) Nearest(sig MinHashSig) (string, float64) {
	if len(x.sigs) == 0 {
		return "", 0
	}
	x.checkLen(sig)
	seen := make(map[int]bool)
	best, bestSim := -1, -1.0
	for b := 0; b < x.bands; b++ {
		for _, id := range x.buckets[b][x.bandHash(sig, b)] {
			if seen[id] {
				continue
			}
			seen[id] = true
			if s := sig.Similarity(x.sigs[id]); s > bestSim {
				best, bestSim = id, s
			}
		}
	}
	if best < 0 {
		return "", 0
	}
	return x.keys[best], bestSim
}

func (x *SigIndex) checkLen(sig MinHashSig) {
	if len(sig) == 0 || len(sig)%x.bands != 0 {
		panic(fmt.Sprintf("index: signature length %d not divisible into %d bands", len(sig), x.bands))
	}
	if x.rows == 0 {
		x.rows = len(sig) / x.bands
	} else if len(sig) != x.rows*x.bands {
		panic(fmt.Sprintf("index: signature length %d, index built for %d", len(sig), x.rows*x.bands))
	}
}
