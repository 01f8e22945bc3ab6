package vclock

import (
	"testing"
	"time"
)

func TestNewDefaultsToEpoch(t *testing.T) {
	c := New(time.Time{})
	want := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	if !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := New(time.Time{})
	start := c.Now()
	c.Advance(90 * time.Second)
	if got := c.Since(start); got != 90*time.Second {
		t.Fatalf("Since = %v, want 90s", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	New(time.Time{}).Advance(-time.Second)
}

func TestAfterFuncFiresAtDeadline(t *testing.T) {
	c := New(time.Time{})
	var firedAt time.Time
	c.AfterFunc(10*time.Second, func(now time.Time) { firedAt = now })
	c.Advance(9 * time.Second)
	if !firedAt.IsZero() {
		t.Fatal("timer fired early")
	}
	c.Advance(2 * time.Second)
	want := time.Date(2020, 1, 1, 0, 0, 10, 0, time.UTC)
	if !firedAt.Equal(want) {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
}

func TestTimersFireInDeadlineOrder(t *testing.T) {
	c := New(time.Time{})
	var order []int
	c.AfterFunc(3*time.Second, func(time.Time) { order = append(order, 3) })
	c.AfterFunc(1*time.Second, func(time.Time) { order = append(order, 1) })
	c.AfterFunc(2*time.Second, func(time.Time) { order = append(order, 2) })
	c.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestEqualDeadlinesFireInScheduleOrder(t *testing.T) {
	c := New(time.Time{})
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.AfterFunc(time.Second, func(time.Time) { order = append(order, i) })
	}
	c.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending schedule order", order)
		}
	}
}

func TestTimerCallbackCanReschedule(t *testing.T) {
	c := New(time.Time{})
	ticks := 0
	var tick func(time.Time)
	tick = func(time.Time) {
		ticks++
		if ticks < 4 {
			c.AfterFunc(time.Second, tick)
		}
	}
	c.AfterFunc(time.Second, tick)
	c.Advance(10 * time.Second)
	if ticks != 4 {
		t.Fatalf("ticks = %d, want 4", ticks)
	}
}

func TestStopCancelsTimer(t *testing.T) {
	c := New(time.Time{})
	fired := false
	tm := c.AfterFunc(time.Second, func(time.Time) { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false, want true before firing")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Stop() {
		t.Fatal("Stop() on cancelled timer should return false")
	}
}

func TestStopAfterFire(t *testing.T) {
	c := New(time.Time{})
	tm := c.AfterFunc(time.Second, func(time.Time) {})
	c.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop() after fire should return false")
	}
}

func TestAdvanceSetsClockToDeadlineDuringCallback(t *testing.T) {
	c := New(time.Time{})
	var seen time.Time
	c.AfterFunc(3*time.Second, func(time.Time) { seen = c.Now() })
	c.Advance(10 * time.Second)
	want := time.Date(2020, 1, 1, 0, 0, 3, 0, time.UTC)
	if !seen.Equal(want) {
		t.Fatalf("clock during callback = %v, want %v", seen, want)
	}
}
