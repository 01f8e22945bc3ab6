package queenbee

import (
	"runtime"
	"testing"
)

// TestWarmQueryAllocs is the read path's allocation ratchet: a warm
// one-term query allocates about the same on a 10³-page engine as on a
// 10²-page one. The measured growth is one allocation and ~2 KiB, the
// bare-term executor's block order (a slice of one entry per skip block
// of the term's list); the bound allows 4 allocations and 4 KiB. A
// per-query copy of anything sized by the corpus — the rank vector, the
// page list, a DocID→URL map — adds tens of KiB at 10³ pages and breaks
// it.
func TestWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates too")
	}
	const runs = 200
	measure := func(pages int) (allocs, bytes float64) {
		e, corp := scalingCorpusEngine(t, pages)
		e.ComputeRanks(4)
		term := corp.Vocab(0)
		run := func() {
			if _, _, err := e.Search(term, 10); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			run()
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		before := e.CacheStats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		if !e.CacheStats().WarmSince(before) {
			t.Fatalf("%d pages: a measured query was not warm", pages)
		}
		allocs = float64(m1.Mallocs-m0.Mallocs) / runs
		bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		t.Logf("%d pages, %q: %.1f allocs, %.0f B a warm query", pages, term, allocs, bytes)
		return allocs, bytes
	}
	smallAllocs, smallBytes := measure(100)
	allocs, bytes := measure(1000)
	if allocs > smallAllocs+4 {
		t.Errorf("a warm query allocates %.1f times at 10³ pages, %.1f at 10²: bound %.1f", allocs, smallAllocs, smallAllocs+4)
	}
	if bytes > smallBytes+4<<10 {
		t.Errorf("a warm query allocates %.0f B at 10³ pages, %.0f B at 10²: bound %.0f B", bytes, smallBytes, smallBytes+4<<10)
	}
}
