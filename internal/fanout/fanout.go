// Package fanout is the one place simulation code starts a goroutine.
// It runs pure work beside the caller's goroutine: a job reads only
// inputs that are immutable once it starts and writes only its own
// output, so what it returns cannot depend on the schedule. Everything
// with a side effect — a simulated RPC, a seeded draw, a cache or
// routing-table write — stays on the caller's goroutine, in a fixed
// order, and reads a job's output only through Job.Wait.
//
// Its users are the write round's builds and compaction merges
// (core.buildSet) and the crawler's page extraction (ingest.Crawl).
package fanout

import (
	"runtime"
	"sync"
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
type Job[T any] struct {
	done chan struct{}
	out  T
}

// Start runs job on a goroutine of its own, which waits for one of g's
// slots, and returns at once: the caller never waits for a slot, only
// for the outputs it reads.
func Start[T any](g *Group, job func() T) *Job[T] {
	j := &Job[T]{done: make(chan struct{})}
	g.wg.Add(1)
	//detlint:ignore goroutine the one fan-out in simulation code: a job reads only its own inputs, immutable once it starts, and writes only its own output
	go func() {
		g.slots <- struct{}{}
		defer func() {
			<-g.slots
			close(j.done)
			g.wg.Done()
		}()
		j.out = job()
	}()
	return j
}

// Wait blocks until the job has returned and gives its output. Every
// caller of one job gets the same output.
func (j *Job[T]) Wait() *T {
	<-j.done
	return &j.out
}

// Wait blocks until every job started on g has returned.
func (g *Group) Wait() { g.wg.Wait() }
