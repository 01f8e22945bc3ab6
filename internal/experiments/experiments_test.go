package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registered %d experiments, want 18", len(all))
	}
	// E1..E14 consecutively, then E16..E19 (E15 is reserved).
	for i, e := range all {
		var want string
		switch {
		case i < 14:
			want = "E" + itoa(i+1)
		default:
			want = "E" + itoa(i+2)
		}
		if e.ID != want {
			t.Fatalf("order: got %s at %d, want %s", e.ID, i, want)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E5"); !ok {
		t.Fatal("E5 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

// Key shape assertions on experiment outputs: these encode the expected
// qualitative results (who wins) that each experiment's Claim rests on.
// Unlike the goldens they still hold after a deliberate re-record.
func TestE5CrawlSlowerThanPublish(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight")
	}
	e, _ := ByID("E5")
	tb := e.Run(1)[0]
	// Row 0: QueenBee; rows 1..3: crawlers at growing intervals.
	if tb.Rows() != 4 {
		t.Fatalf("E5 rows = %d, want 4", tb.Rows())
	}
	if !strings.Contains(tb.Cell(0, 0), "QueenBee") {
		t.Fatalf("row 0 = %q", tb.Cell(0, 0))
	}
	median := func(r int) time.Duration {
		d, err := time.ParseDuration(tb.Cell(r, 1))
		if err != nil {
			t.Fatalf("row %d median %q: %v", r, tb.Cell(r, 1), err)
		}
		return d
	}
	for r := 1; r < tb.Rows(); r++ {
		if median(r) <= median(r-1) {
			t.Fatalf("%s median %v not above %s's %v", tb.Cell(r, 0), median(r), tb.Cell(r-1, 0), median(r-1))
		}
	}
}

// TestE17PipelinedBeatsSerial encodes the ISSUE 7 acceptance shape: on
// a ≥2000-page crawl, the pipelined round model beats the serial one on
// simulated makespan, and the speedup column reports > 1.
func TestE17PipelinedBeatsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight")
	}
	e, _ := ByID("E17")
	tb := e.Run(1)[0]
	if tb.Rows() != 1 {
		t.Fatalf("headline table shape: %s", tb)
	}
	serial, err1 := time.ParseDuration(tb.Cell(0, 2))
	pipelined, err2 := time.ParseDuration(tb.Cell(0, 3))
	if err1 != nil || err2 != nil {
		t.Fatalf("bad makespan cells %q %q: %v %v", tb.Cell(0, 2), tb.Cell(0, 3), err1, err2)
	}
	if pipelined >= serial {
		t.Fatalf("pipelined makespan %v not better than serial %v", pipelined, serial)
	}
	speedup, err := strconv.ParseFloat(tb.Cell(0, 7), 64)
	if err != nil || speedup <= 1 {
		t.Fatalf("speedup cell %q (%v), want > 1", tb.Cell(0, 7), err)
	}
}

// TestE19WritePathScaling encodes the write-path scaling acceptance
// shape: as the run length quadruples, steady-state compacted bytes per
// round stay flat and the cumulative write amplification grows only by
// its log factor. The bounds sit above seed 1's readings (compacted
// B/round 1 304 → 2 620, at most 2.3× the ingested bytes; amplification
// 2.15 → 3.02), well below what merging a shard's whole chain would
// cost (15 816 → 46 537 B/round, amplification 6.5 → 20.5). On the rank
// side, the delta epoch must cost strictly less than the full recompute
// at every graph size while keeping the top-10 exact.
func TestE19WritePathScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight")
	}
	e, _ := ByID("E19")
	tables := e.Run(1)
	if len(tables) != 2 {
		t.Fatalf("E19 produced %d tables, want 2", len(tables))
	}

	comp := tables[0]
	if comp.Rows() != 3 {
		t.Fatalf("compaction table rows = %d, want 3", comp.Rows())
	}
	cell := func(tb interface{ Cell(int, int) string }, r, c int) float64 {
		v, err := strconv.ParseFloat(tb.Cell(r, c), 64)
		if err != nil {
			t.Fatalf("cell (%d,%d) = %q: %v", r, c, tb.Cell(r, c), err)
		}
		return v
	}
	if first, last := cell(comp, 0, 2), cell(comp, 2, 2); last > 2.5*first {
		t.Fatalf("compacted bytes/round grew %.0f -> %.0f over 4x rounds; expected flat (±2.5x)", first, last)
	}
	for r := 0; r < comp.Rows(); r++ {
		if ingested, compacted := cell(comp, r, 1), cell(comp, r, 2); compacted > 3*ingested {
			t.Fatalf("row %d: compacted %.0f B/round exceeds 3x the %.0f ingested", r, compacted, ingested)
		}
	}
	if first, last := cell(comp, 0, 3), cell(comp, 2, 3); last > 1.5*first {
		t.Fatalf("write amplification grew %.2f -> %.2f over 4x rounds; expected log growth (≤1.5x)", first, last)
	}

	rk := tables[1]
	if rk.Rows() != 3 {
		t.Fatalf("rank table rows = %d, want 3", rk.Rows())
	}
	for r := 0; r < rk.Rows(); r++ {
		full, delta := cell(rk, r, 3), cell(rk, r, 4)
		if delta >= full {
			t.Fatalf("row %d: delta cost %.0f not below full cost %.0f", r, delta, full)
		}
		if rk.Cell(r, 7) != "true" {
			t.Fatalf("row %d: delta epoch broke the top-10 ordering", r)
		}
	}
}

func TestE11ZeroColludersZeroCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight")
	}
	e, _ := ByID("E11")
	tb := e.Run(1)[0]
	for i := 0; i < tb.Rows(); i++ {
		if tb.Cell(i, 0) == "0" && tb.Cell(i, 3) != "0" {
			t.Fatalf("zero colluders corrupted tasks: row %d", i)
		}
	}
}

// TestE18ResultsIdentical encodes the E18 acceptance shape: block-max
// WAND returns exactly the oracle's responses while decoding no more
// postings than the full scan matches.
func TestE18ResultsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight")
	}
	s := e18Run(1, 48)
	if !s.oracleOK {
		t.Fatalf("WAND responses diverged from the oracle: %+v", s)
	}
	if s.scanned > s.matched {
		t.Fatalf("WAND scanned more postings than the full scan matches: %.1f > %.1f", s.scanned, s.matched)
	}
}
