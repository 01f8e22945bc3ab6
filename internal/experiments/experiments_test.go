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

// Each experiment must run and produce at least one non-empty table.
// Heavier experiments are exercised here with the default seed; this is
// the integration test for the whole reproduction harness.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavyweight; skipped with -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(1)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, table := range tables {
				if table.Rows() == 0 {
					t.Fatalf("%s produced empty table %q", e.ID, table.Title)
				}
				if !strings.Contains(table.String(), "\n") {
					t.Fatalf("%s table %q renders empty", e.ID, table.Title)
				}
			}
		})
	}
}

// Key shape assertions on experiment outputs: these encode the expected
// qualitative results (who wins) that EXPERIMENTS.md reports.
func TestE5CrawlSlowerThanPublish(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight")
	}
	e, _ := ByID("E5")
	tables := e.Run(1)
	tb := tables[0]
	// Row 0: QueenBee; rows 1..3: crawlers. Compare medians textually is
	// fragile; re-run is cheap enough — instead assert row count.
	if tb.Rows() != 4 {
		t.Fatalf("E5 rows = %d, want 4", tb.Rows())
	}
	if !strings.Contains(tb.Cell(0, 0), "QueenBee") {
		t.Fatalf("row 0 = %q", tb.Cell(0, 0))
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

// TestE19WritePathScaling encodes the ISSUE 10 acceptance shape: as the
// run length quadruples, the tiered policy's steady-state bytes per
// round stay flat (within the documented ~2× log-factor) while the
// monolithic policy's grow at least 2×; the tiered run's cumulative
// write amplification beats the monolithic run's at every scale. On the
// rank side, the delta epoch must cost strictly less than the full
// recompute at every graph size while keeping the top-10 exact.
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
	monoFirst, monoLast := cell(comp, 0, 1), cell(comp, 2, 1)
	tieredFirst, tieredLast := cell(comp, 0, 2), cell(comp, 2, 2)
	if monoLast < 2*monoFirst {
		t.Fatalf("monolithic bytes/round grew only %.0f -> %.0f over 4x rounds; expected ~linear growth",
			monoFirst, monoLast)
	}
	if tieredLast > 2.5*tieredFirst {
		t.Fatalf("tiered bytes/round grew %.0f -> %.0f over 4x rounds; expected flat (±2x)",
			tieredFirst, tieredLast)
	}
	for r := 0; r < comp.Rows(); r++ {
		if monoAmp, tieredAmp := cell(comp, r, 3), cell(comp, r, 4); tieredAmp >= monoAmp {
			t.Fatalf("row %d: tiered amplification %.2f not below monolithic %.2f", r, tieredAmp, monoAmp)
		}
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
// WAND returns exactly the same result lists as exhaustive scoring
// while decoding no more postings than the exhaustive path does.
func TestE18ResultsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight")
	}
	wand, exhaustive := e18Run(1, 48)
	if !wand.identical || !exhaustive.identical {
		t.Fatalf("WAND results diverged from exhaustive: wand=%+v exhaustive=%+v", wand, exhaustive)
	}
	if wand.scanned > exhaustive.scanned {
		t.Fatalf("WAND scanned more postings than exhaustive: %.1f > %.1f", wand.scanned, exhaustive.scanned)
	}
	if exhaustive.skipped != 0 || exhaustive.docsSkip != 0 {
		t.Fatalf("exhaustive path reported skips: %+v", exhaustive)
	}
}
