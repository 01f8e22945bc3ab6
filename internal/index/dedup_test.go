package index

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// mirrorOf simulates the paper's scraper attack: the mirror copies the
// original text and splices a few of its own words in, hoping to farm
// honey off someone else's content.
func mirrorOf(text string) string {
	words := strings.Fields(text)
	for i := 7; i < len(words); i += 25 {
		words[i] = "sponsored"
	}
	return strings.Join(words, " ") + " visit mirror site now"
}

func corpusText(seed, words int) string {
	var b strings.Builder
	for i := 0; i < words; i++ {
		fmt.Fprintf(&b, "worda%d wordb%d ", (seed+i*7)%53, (seed+i*13)%31)
	}
	return b.String()
}

// fnvShingles is shingleTokens as it was written with hash/fnv: a fresh
// FNV-1a hasher a shingle, each term followed by a 0x1f byte.
func fnvShingles(toks []Token, k int) map[uint64]bool {
	out := make(map[uint64]bool)
	k = min(k, len(toks))
	for i := 0; k > 0 && i+k <= len(toks); i++ {
		h := fnv.New64a()
		for j := i; j < i+k; j++ {
			h.Write([]byte(toks[j].Term))
			h.Write([]byte{0x1f})
		}
		out[h.Sum64()] = true
	}
	return out
}

// TestShingleHashesMatchFNV: the inlined shingle hash is hash/fnv's
// 64-bit FNV-1a, byte for byte, on random token streams — empty, shorter
// than the shingle, and of multi-byte runes and empty terms — so every
// signature, and with it every dedup decision, is what it was.
func TestShingleHashesMatchFNV(t *testing.T) {
	alphabet := []string{"a", "z", "0", "é", "ß", "日本", "\x1f", "\xff", "🐝", ""}
	rng := xrand.New(1)
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(12)
		if trial == 0 {
			n = 0
		}
		toks := make([]Token, n)
		for i := range toks {
			var b strings.Builder
			for l := rng.Intn(6); l > 0; l-- {
				b.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
			toks[i] = Token{Term: b.String(), Pos: uint32(i)}
		}
		for _, k := range []int{1, 2, DefaultShingleSize, 9} {
			if got, want := shingleTokens(toks, k), fnvShingles(toks, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %d tokens %q, k=%d: shingles %v, hash/fnv gives %v", trial, n, toks, k, got, want)
			}
		}
	}
}

func TestSignatureSimilarity(t *testing.T) {
	orig := corpusText(1, 120)
	same := SignatureOf(orig)
	if sim := same.Similarity(SignatureOf(orig)); sim != 1 {
		t.Fatalf("identical text similarity = %v, want 1", sim)
	}
	mirror := SignatureOf(mirrorOf(orig))
	if sim := same.Similarity(mirror); sim < 0.5 {
		t.Fatalf("mirror similarity = %v, want high", sim)
	}
	other := SignatureOf(corpusText(999, 120))
	if sim := same.Similarity(other); sim > 0.2 {
		t.Fatalf("unrelated similarity = %v, want low", sim)
	}
}

// TestSignatureOfTokens pins the three spellings of one signature to
// each other: from text, from the text's tokens, and shingle-then-MinHash
// by hand.
func TestSignatureOfTokens(t *testing.T) {
	for name, text := range map[string]string{
		"empty":       "",
		"below-k":     "anything here",
		"orig":        corpusText(1, 120),
		"mirror":      mirrorOf(corpusText(1, 120)),
		"other":       corpusText(999, 120),
		"lsh-fixture": corpusText(17*101, 100),
	} {
		want := SignatureOf(text)
		if got := SignatureOfTokens(Analyze(text)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: SignatureOfTokens(Analyze(t)) differs from SignatureOf(t)", name)
		}
		if got := MinHash(Shingles(text, DefaultShingleSize), DefaultSignatureSize); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: MinHash(Shingles(t)) differs from SignatureOf(t)", name)
		}
	}
}

func TestSigIndexFindsMirror(t *testing.T) {
	x := NewSigIndex(0)
	for i := 0; i < 50; i++ {
		x.Add(fmt.Sprintf("doc-%02d", i), SignatureOf(corpusText(i*101, 100)))
	}
	if x.Len() != 50 {
		t.Fatalf("Len = %d", x.Len())
	}
	// The mirror of doc-17 must come back as the nearest neighbour,
	// well above the unrelated background.
	key, sim := x.Nearest(SignatureOf(mirrorOf(corpusText(17*101, 100))))
	if key != "doc-17" {
		t.Fatalf("nearest = %q (sim %v), want doc-17", key, sim)
	}
	if sim < 0.5 {
		t.Fatalf("mirror similarity = %v, want high", sim)
	}
	// An exact copy scores 1.0.
	if key, sim := x.Nearest(SignatureOf(corpusText(17*101, 100))); key != "doc-17" || sim != 1 {
		t.Fatalf("exact copy: %q %v", key, sim)
	}
}

func TestSigIndexEmptyAndDeterministic(t *testing.T) {
	x := NewSigIndex(16)
	if key, sim := x.Nearest(SignatureOf("anything at all here")); key != "" || sim != 0 {
		t.Fatalf("empty index returned %q %v", key, sim)
	}
	// Two identical documents added in order: ties keep the earliest.
	sig := SignatureOf(corpusText(5, 80))
	x.Add("first", sig)
	x.Add("second", sig)
	for i := 0; i < 3; i++ {
		if key, sim := x.Nearest(sig); key != "first" || sim != 1 {
			t.Fatalf("tie broke to %q %v", key, sim)
		}
	}
}

func TestSigIndexRejectsBadBandSplit(t *testing.T) {
	x := NewSigIndex(16)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on indivisible signature length")
		}
	}()
	x.Add("bad", make(MinHashSig, 10))
}
