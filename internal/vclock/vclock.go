// Package vclock provides a deterministic virtual clock.
//
// Every subsystem in the simulation derives time from a Clock instead of
// the wall clock, so experiments that measure durations (freshness,
// latency, crawl schedules) are reproducible and run as fast as the CPU
// allows. Time only moves when a component advances it explicitly.
package vclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Clock is a manually advanced virtual clock. The zero value is not usable;
// construct with New. Clock is safe for concurrent use.
type Clock struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
	seq    uint64 // tie-breaker for timers with equal deadlines
}

// New returns a Clock starting at the given origin. A zero origin starts at
// the conventional simulation epoch 2020-01-01T00:00:00Z.
func New(origin time.Time) *Clock {
	if origin.IsZero() {
		origin = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	return &Clock{now: origin}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// Advance moves the clock forward by d, firing every timer whose deadline
// is reached, in deadline order. Advance panics if d is negative.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	c.mu.Lock()
	target := c.now.Add(d)
	for len(c.timers) > 0 && !c.timers[0].when.After(target) {
		t := heap.Pop(&c.timers).(*timer)
		c.now = t.when
		fn := t.fn
		// Release the lock while running the callback so callbacks may
		// schedule further timers or read the clock.
		c.mu.Unlock()
		fn(t.when)
		c.mu.Lock()
	}
	c.now = target
	c.mu.Unlock()
}

// AfterFunc schedules fn to run when the clock has advanced by d. The
// callback receives the virtual time at which it fired. It returns a handle
// that can cancel the timer.
func (c *Clock) AfterFunc(d time.Duration, fn func(now time.Time)) *Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	t := &timer{when: c.now.Add(d), seq: c.seq, fn: fn}
	heap.Push(&c.timers, t)
	return &Timer{clock: c, t: t}
}

// Timer is a handle to a scheduled callback.
type Timer struct {
	clock *Clock
	t     *timer
}

// Stop cancels the timer. It reports whether the timer had not yet fired.
func (tm *Timer) Stop() bool {
	tm.clock.mu.Lock()
	defer tm.clock.mu.Unlock()
	if tm.t.fired || tm.t.cancelled {
		return false
	}
	tm.t.cancelled = true
	tm.t.fn = func(time.Time) {}
	return true
}

type timer struct {
	when      time.Time
	seq       uint64
	fn        func(now time.Time)
	fired     bool
	cancelled bool
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].when.Equal(h[j].when) {
		return h[i].seq < h[j].seq
	}
	return h[i].when.Before(h[j].when)
}

func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *timerHeap) Push(x any) { *h = append(*h, x.(*timer)) }

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	t.fired = true
	return t
}
