// Package fanout is the one place simulation code starts a goroutine.
// It runs pure work beside the caller's goroutine: a job reads only
// inputs that are immutable once it starts and writes only its own
// output, so what it returns cannot depend on the schedule, nor on which
// goroutine runs it: its own, or a reader that needs it before it was
// scheduled. No job waits for another job. Everything with a side
// effect — a simulated RPC, a seeded draw, a cache or routing-table
// write — stays on the caller's goroutine, in a fixed order, and reads a
// job's output only through Job.Wait.
//
// Its users are the write round's builds (core.buildSet) and compaction
// merges (core.runTable), the chain's signature checks
// (chain.Chain.Submit) and the crawler's page extraction (ingest.Crawl).
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Group bounds its running jobs to one a CPU and lets the caller wait
// for all of them.
type Group struct {
	wg    sync.WaitGroup
	slots chan struct{}
}

// New returns a group with one slot a CPU (GOMAXPROCS).
func New() *Group {
	return &Group{slots: make(chan struct{}, runtime.GOMAXPROCS(0))}
}

// Job is one started job; its output is valid once done is closed.
// Exactly one goroutine runs it, on one of g's slots: its own, or a
// reader that found it not yet taken (Wait).
type Job[T any] struct {
	g     *Group
	run   func() T
	taken atomic.Bool
	done  chan struct{}
	out   T
}

// Start runs job on a goroutine of its own, once one of g's slots is
// free, and returns at once: the caller never waits for a slot, only for
// the outputs it reads.
func Start[T any](g *Group, job func() T) *Job[T] {
	j := &Job[T]{g: g, run: job, done: make(chan struct{})}
	g.wg.Add(1)
	//detlint:ignore goroutine the one fan-out in simulation code: a job reads only its own inputs, immutable once it starts, and writes only its own output
	go func() {
		defer g.wg.Done()
		if !j.taken.Load() {
			g.slots <- struct{}{}
			j.finish()
		}
	}()
	return j
}

// finish runs the job on the slot its caller holds, unless another
// goroutine took the job first, and frees the slot.
func (j *Job[T]) finish() {
	defer func() { <-j.g.slots }()
	if j.taken.CompareAndSwap(false, true) {
		j.out = j.run()
		close(j.done)
	}
}

// Wait gives the job's output, blocking until the job has returned. A
// reader that finds the job not yet taken and a slot free runs the job
// itself, so it does not wait for the job's goroutine to be scheduled.
// Every caller of one job gets the same output.
func (j *Job[T]) Wait() *T {
	if !j.taken.Load() {
		select {
		case j.g.slots <- struct{}{}:
			j.finish()
		default:
		}
	}
	<-j.done
	return &j.out
}

// Wait blocks until every job started on g has returned or is running on
// a reader's goroutine (Job.Wait).
func (g *Group) Wait() { g.wg.Wait() }
