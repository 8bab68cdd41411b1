package event

import (
	"testing"
	"time"
)

func TestOrderingAndTies(t *testing.T) {
	origin := time.Unix(0, 0)
	s := NewScheduler(origin)
	var order []int
	s.At(origin.Add(3*time.Millisecond), func(time.Time) { order = append(order, 3) })
	s.At(origin.Add(1*time.Millisecond), func(time.Time) { order = append(order, 1) })
	s.At(origin.Add(2*time.Millisecond), func(time.Time) { order = append(order, 20) })
	s.At(origin.Add(2*time.Millisecond), func(time.Time) { order = append(order, 21) }) // FIFO tie
	if n := s.Run(0); n != 4 {
		t.Fatalf("Run = %d", n)
	}
	if len(order) != 4 {
		t.Fatalf("%d callbacks ran, want 4", len(order))
	}
	want := []int{1, 20, 21, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != origin.Add(3*time.Millisecond) {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestCascadingEvents(t *testing.T) {
	origin := time.Unix(0, 0)
	s := NewScheduler(origin)
	hops := 0
	var hop Handler
	hop = func(now time.Time) {
		hops++
		if hops < 5 {
			s.After(time.Millisecond, hop)
		}
	}
	s.After(time.Millisecond, hop)
	s.Run(0)
	if hops != 5 {
		t.Errorf("hops = %d", hops)
	}
	if got := s.Now().Sub(origin); got != 5*time.Millisecond {
		t.Errorf("elapsed = %v", got)
	}
}

func TestPastEventsRunNow(t *testing.T) {
	origin := time.Unix(100, 0)
	s := NewScheduler(origin)
	ran := false
	s.At(origin.Add(-time.Hour), func(now time.Time) {
		ran = true
		if now.Before(origin) {
			t.Error("time ran backwards")
		}
	})
	s.Run(0)
	if !ran {
		t.Error("past event dropped")
	}
}

func TestRunUntil(t *testing.T) {
	origin := time.Unix(0, 0)
	s := NewScheduler(origin)
	var ran []int
	for i := 1; i <= 5; i++ {
		i := i
		s.At(origin.Add(time.Duration(i)*time.Second), func(time.Time) { ran = append(ran, i) })
	}
	n := s.RunUntil(origin.Add(3 * time.Second))
	if n != 3 || len(ran) != 3 {
		t.Errorf("RunUntil executed %d (%v)", n, ran)
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d", s.Pending())
	}
	if s.Now() != origin.Add(3*time.Second) {
		t.Errorf("Now = %v", s.Now())
	}
	// Deadline beyond all events advances the clock to the deadline.
	s.RunUntil(origin.Add(10 * time.Second))
	if s.Now() != origin.Add(10*time.Second) || s.Pending() != 0 {
		t.Errorf("final Now = %v Pending = %d", s.Now(), s.Pending())
	}
}

func TestRunBounded(t *testing.T) {
	s := NewScheduler(time.Unix(0, 0))
	count := 0
	var loop Handler
	loop = func(time.Time) {
		count++
		s.After(time.Millisecond, loop)
	}
	s.After(0, loop)
	if n := s.Run(100); n != 100 {
		t.Errorf("bounded Run = %d", n)
	}
	if count != 100 {
		t.Errorf("count = %d", count)
	}
}
