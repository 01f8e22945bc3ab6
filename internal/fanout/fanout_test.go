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

// TestStartAfterWaitsWithoutASlot: at GOMAXPROCS=1, jobs started after
// a job that has not returned yet — one of them two levels deep — wait
// for it without taking a slot: on two slots, the running job holds one
// and the other stays free for a job on no dependency. Once the running
// job returns, each dependent reads its dependency's output.
func TestStartAfterWaitsWithoutASlot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := &Group{slots: make(chan struct{}, 2)} // a waiting job could take the free slot
	running, release := make(chan struct{}), make(chan struct{})
	first := Start(g, func() int {
		close(running)
		<-release
		return 10
	})
	<-running
	deps := make([]*Job[int], 4)
	for i := range deps {
		deps[i] = Start(g, func() int { return *first.Wait() + i }, first)
	}
	last := Start(g, func() int { return *deps[0].Wait() * 2 }, deps[0], first)
	for k := 0; k < 100; k++ {
		runtime.Gosched() // let every started goroutine park
	}
	if n := len(g.slots); n != 1 {
		t.Fatalf("%d slots held while one job runs and the rest wait for it", n)
	}
	if got := *Start(g, func() int { return 7 }).Wait(); got != 7 {
		t.Fatalf("a job on no dependency gave %d", got)
	}
	close(release)
	for i, d := range deps {
		if got := *d.Wait(); got != 10+i {
			t.Fatalf("dependent %d gave %d, want %d", i, got, 10+i)
		}
	}
	if got := *last.Wait(); got != 20 {
		t.Fatalf("second-level dependent gave %d, want 20", got)
	}
	g.Wait()
	if n := len(g.slots); n != 0 {
		t.Fatalf("%d slots held once every job returned", n)
	}
}
