package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"overlapsim/internal/units"
)

// fn lets these tests schedule plain funcs: a test-local Target that
// ignores the kind and calls itself.
type fn func()

func (f fn) HandleEvent(Kind) { f() }

// scheduleAt schedules f at the absolute instant t.
func scheduleAt(e *Engine, t units.Time, f func()) { e.ScheduleEvent(t, fn(f), 0) }

// scheduleAfter schedules f after delay d.
func scheduleAfter(e *Engine, d units.Duration, f func()) { e.ScheduleEventAfter(d, fn(f), 0) }

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	scheduleAt(e, 30, func() { order = append(order, 3) })
	scheduleAt(e, 10, func() { order = append(order, 1) })
	scheduleAt(e, 20, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("final time %v, want 30", e.Now())
	}
}

func TestEngineTieBreakByInsertion(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		scheduleAt(e, 5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events ran out of insertion order: %v", order)
		}
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := New()
	var trace []units.Time
	scheduleAt(e, 10, func() {
		trace = append(trace, e.Now())
		scheduleAfter(e, 5, func() {
			trace = append(trace, e.Now())
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Errorf("trace = %v, want [10 15]", trace)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := New()
	scheduleAt(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		scheduleAt(e, 5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil event should panic")
		}
	}()
	New().ScheduleEventAfter(0, nil, 0)
}

func TestEngineStop(t *testing.T) {
	e := New()
	ran := 0
	scheduleAt(e, 1, func() { ran++; e.Stop() })
	scheduleAt(e, 2, func() { ran++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("ran %d events after Stop, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := New()
	e.SetStepLimit(100)
	var tick func()
	tick = func() { scheduleAfter(e, 1, tick) }
	scheduleAt(e, 0, tick)
	if err := e.Run(); err == nil {
		t.Error("expected step-limit error for self-perpetuating schedule")
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := New()
	var at units.Time
	scheduleAt(e, 10, func() {
		scheduleAfter(e, -5, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10 {
		t.Errorf("negative delay event ran at %v, want 10", at)
	}
}

func TestPropertyEngineMonotoneClock(t *testing.T) {
	// Whatever the schedule, observed times are non-decreasing and equal to
	// the sorted multiset of scheduled times.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		count := int(n%50) + 1
		want := make([]units.Time, 0, count)
		got := make([]units.Time, 0, count)
		for i := 0; i < count; i++ {
			when := units.Time(rng.Int63n(1000))
			want = append(want, when)
			scheduleAt(e, when, func() { got = append(got, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
			if i > 0 && got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
