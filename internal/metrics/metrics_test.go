package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Median() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram should return zeros")
	}
}

func TestHistogramMean(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4} {
		h.Add(v)
	}
	if h.Mean() != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", h.Mean())
	}
	if h.Sum() != 10 {
		t.Fatalf("Sum = %v, want 10", h.Sum())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if got := h.Median(); math.Abs(got-50.5) > 0.01 {
		t.Fatalf("Median = %v, want 50.5", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("Q1 = %v, want 100", got)
	}
	if got := h.Quantile(0.99); got < 98 || got > 100 {
		t.Fatalf("Q99 = %v, want ~99", got)
	}
}

func TestHistogramAddAfterQuantile(t *testing.T) {
	var h Histogram
	h.Add(5)
	_ = h.Median()
	h.Add(1)
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("minimum after re-add = %v, want 1", got)
	}
}

func TestHistogramAddDuration(t *testing.T) {
	var h Histogram
	h.AddDuration(1500 * time.Millisecond)
	if h.Mean() != 1.5 {
		t.Fatalf("Mean = %v, want 1.5", h.Mean())
	}
}

func TestGiniEqual(t *testing.T) {
	if g := Gini([]float64{5, 5, 5, 5}); math.Abs(g) > 1e-9 {
		t.Fatalf("Gini equal = %v, want 0", g)
	}
}

func TestGiniConcentrated(t *testing.T) {
	g := Gini([]float64{0, 0, 0, 100})
	if g < 0.7 {
		t.Fatalf("Gini concentrated = %v, want high", g)
	}
}

func TestGiniDegenerate(t *testing.T) {
	if Gini(nil) != 0 || Gini([]float64{3}) != 0 || Gini([]float64{0, 0}) != 0 {
		t.Fatal("degenerate Gini should be 0")
	}
}

func TestGiniInRangeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		g := Gini(vals)
		return g >= -1e-9 && g <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-9 {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Pearson with zero variance = %v, want 0", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 10, 100, 1000, 10000} // monotone but nonlinear
	if got := Spearman(xs, ys); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Spearman = %v, want 1", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.0)
	tb.AddRow("b", 250*time.Millisecond)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "250ms") {
		t.Fatalf("missing cells: %q", out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", tb.Rows())
	}
	if tb.Cell(0, 0) != "alpha" {
		t.Fatalf("Cell(0,0) = %q", tb.Cell(0, 0))
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		1234:   "1234",
		0.5:    "0.50000",
		1.25:   "1.250",
		123.45: "123.5",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Add(float64(v))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
