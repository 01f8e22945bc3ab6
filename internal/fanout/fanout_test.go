package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestStartRunsOneJobACPU: every job's output reaches each reader, at
// most GOMAXPROCS jobs run at once, and Group.Wait returns only once
// every job has.
func TestStartRunsOneJobACPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		g := New()
		var running, peak, finished atomic.Int32
		jobs := make([]*Job[int], 32)
		for i := range jobs {
			jobs[i] = Start(g, func() int {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				for k := 0; k < 100; k++ {
					runtime.Gosched() // let any other started job run beside this one
				}
				running.Add(-1)
				finished.Add(1)
				return i
			})
		}
		for i, j := range jobs {
			if got := *j.Wait(); got != i {
				t.Fatalf("GOMAXPROCS=%d: job %d gave %d", procs, i, got)
			}
			if again := *j.Wait(); again != i {
				t.Fatalf("GOMAXPROCS=%d: job %d's second reader got %d", procs, i, again)
			}
		}
		g.Wait()
		if n := finished.Load(); n != int32(len(jobs)) {
			t.Fatalf("GOMAXPROCS=%d: Wait returned with %d of %d jobs finished", procs, n, len(jobs))
		}
		if p := peak.Load(); p > int32(procs) {
			t.Fatalf("GOMAXPROCS=%d: %d jobs ran at once", procs, p)
		}
	}
}
