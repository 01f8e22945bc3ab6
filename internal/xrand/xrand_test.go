package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestNewNamedStreamsIndependent(t *testing.T) {
	a := NewNamed(7, "alice")
	b := NewNamed(7, "bob")
	a2 := NewNamed(7, "alice")
	if a.Uint64() != a2.Uint64() {
		t.Fatal("NewNamed not deterministic for same name")
	}
	if NewNamed(7, "alice").Uint64() == b.Uint64() {
		t.Fatal("NewNamed streams for different names should differ")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(7)
	s := r.Sample(50, 10)
	if len(s) != 10 {
		t.Fatalf("len = %d, want 10", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid sample: %v", s)
		}
		seen[v] = true
	}
}

func TestSampleKGreaterThanN(t *testing.T) {
	r := New(8)
	s := r.Sample(5, 10)
	if len(s) != 5 {
		t.Fatalf("len = %d, want 5", len(s))
	}
}

func TestZipfRankZeroMostPopular(t *testing.T) {
	r := New(9)
	z := NewZipf(r, 1.1, 1000)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Fatalf("Zipf counts not monotone-ish: c0=%d c10=%d c500=%d",
			counts[0], counts[10], counts[500])
	}
}

func TestZipfSkewRatio(t *testing.T) {
	r := New(10)
	z := NewZipf(r, 1.0, 100)
	counts := make([]int, 100)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// With s=1, P(0)/P(1) = 2. Allow generous slack.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("P(0)/P(1) = %v, want ~2", ratio)
	}
}

func TestWeighted(t *testing.T) {
	r := New(11)
	w := []float64{0, 1, 0, 3}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[r.Weighted(w)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight indices chosen: %v", counts)
	}
	ratio := float64(counts[3]) / float64(counts[1])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestBytesFill(t *testing.T) {
	r := New(12)
	for _, n := range []int{0, 1, 7, 8, 9, 31} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 8 {
			allZero := true
			for _, v := range b {
				if v != 0 {
					allZero = false
				}
			}
			if allZero {
				t.Fatalf("Bytes(%d) produced all zeros", n)
			}
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(15)
	a := parent.Split()
	b := parent.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams should differ")
	}
}

// Property: Perm always returns a valid permutation.
func TestPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Zipf draws always fall in [0, n).
func TestZipfRangeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := New(seed)
		z := NewZipf(r, 1.2, n)
		for i := 0; i < 100; i++ {
			if v := z.Next(); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
