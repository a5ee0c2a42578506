package sim

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerStartsAtZero(t *testing.T) {
	s := NewScheduler()
	if s.Now() != 0 {
		t.Fatalf("new scheduler clock = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("new scheduler pending = %d, want 0", s.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []string
	s.After(30*time.Millisecond, "c", func() { got = append(got, "c") })
	s.After(10*time.Millisecond, "a", func() { got = append(got, "a") })
	s.After(20*time.Millisecond, "b", func() { got = append(got, "b") })
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Fatalf("clock after Run = %v, want 30ms", s.Now())
	}
}

func TestSameTimestampIsFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, "e", func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %v", i, got)
		}
	}
}

func TestPostRunsAtCurrentInstant(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.After(7*time.Millisecond, "outer", func() {
		s.Post("inner", func() { at = s.Now() })
	})
	s.Run()
	if at != Time(7*time.Millisecond) {
		t.Fatalf("posted event ran at %v, want 7ms", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.After(time.Millisecond, "x", func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event does not report cancelled")
	}
	// Double-cancel is a no-op.
	s.Cancel(e)
}

func TestCancelOneOfMany(t *testing.T) {
	s := NewScheduler()
	var got []string
	a := s.After(1*time.Millisecond, "a", func() { got = append(got, "a") })
	s.After(2*time.Millisecond, "b", func() { got = append(got, "b") })
	s.After(3*time.Millisecond, "c", func() { got = append(got, "c") })
	s.Cancel(a)
	s.Run()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("got %v, want [b c]", got)
	}
}

func TestRunUntilHonoursWindow(t *testing.T) {
	s := NewScheduler()
	var got []string
	s.After(10*time.Millisecond, "in", func() {
		got = append(got, "in")
		s.After(5*time.Millisecond, "chained", func() { got = append(got, "chained") })
	})
	s.After(100*time.Millisecond, "out", func() { got = append(got, "out") })
	s.RunUntil(Time(20 * time.Millisecond))
	if len(got) != 2 || got[0] != "in" || got[1] != "chained" {
		t.Fatalf("got %v, want [in chained]", got)
	}
	if s.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock = %v, want 20ms", s.Now())
	}
	s.Run()
	if len(got) != 3 || got[2] != "out" {
		t.Fatalf("after Run got %v", got)
	}
}

func TestAdvanceMovesClockEvenWithoutEvents(t *testing.T) {
	s := NewScheduler()
	s.Advance(42 * time.Millisecond)
	if s.Now() != Time(42*time.Millisecond) {
		t.Fatalf("clock = %v, want 42ms", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.Advance(10 * time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(Time(5*time.Millisecond), "past", func() {})
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := NewScheduler()
	s.Advance(time.Millisecond)
	fired := false
	s.After(-time.Second, "neg", func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event with negative delay did not fire")
	}
	if s.Now() != Time(time.Millisecond) {
		t.Fatalf("clock moved to %v", s.Now())
	}
}

func TestTracerSeesEvents(t *testing.T) {
	s := NewScheduler()
	tr := &RecordingTracer{}
	s.SetTracer(tr)
	s.After(time.Millisecond, "one", func() {})
	s.After(2*time.Millisecond, "two", func() {})
	s.Run()
	names := tr.Names()
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Fatalf("trace = %v", names)
	}
	if tr.Entries[1].At != Time(2*time.Millisecond) {
		t.Fatalf("second entry at %v", tr.Entries[1].At)
	}
	if s.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", s.Fired())
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Microsecond)
	if tm.Milliseconds() != 1.5 {
		t.Fatalf("Milliseconds = %v, want 1.5", tm.Milliseconds())
	}
	if tm.Add(500*time.Microsecond) != Time(2*time.Millisecond) {
		t.Fatalf("Add wrong")
	}
	if tm.Sub(Time(time.Millisecond)) != 500*time.Microsecond {
		t.Fatalf("Sub wrong")
	}
	if tm.String() != "1.5ms" {
		t.Fatalf("String = %q", tm.String())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fired []Time
		var max Time
		for _, d := range delays {
			dur := time.Duration(d) * time.Microsecond
			if Time(dur) > max {
				max = Time(dur)
			}
			s.After(dur, "e", func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || s.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RNG streams are deterministic per seed and Intn stays in range.
func TestRNGProperties(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		m := int(n%100) + 1
		v := NewRNG(seed).Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(0.05)
		if j < 0.95 || j > 1.05 {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// twin drives one scheduler whose wakeup is re-armed in place with
// Rearm, or one whose wakeup is re-created with Cancel then At, the way
// callers re-armed before Rearm existed. Both record what fired.
type twin struct {
	s     *Scheduler
	fired []string
	arm   func(t Time)
}

func newTwin(rearm bool) *twin {
	tw := &twin{s: NewScheduler()}
	wake := func() { tw.fired = append(tw.fired, "wake@"+tw.s.Now().String()) }
	if rearm {
		e := NewEvent("wake", wake)
		tw.arm = func(t Time) { tw.s.Rearm(&e, t) }
	} else {
		var e *Event
		tw.arm = func(t Time) {
			tw.s.Cancel(e)
			e = tw.s.At(t, "wake", wake)
		}
	}
	return tw
}

func (tw *twin) post(t Time, name string) {
	tw.s.At(t, name, func() { tw.fired = append(tw.fired, name) })
}

// TestRearmOrdersLikeCancelAndAt runs one script on a Rearm scheduler and
// on a Cancel+At twin: equal timestamps, re-arming a pending wakeup
// earlier and later, and re-arming after it fired must all fire in the
// same order, and leave both schedulers on the same sequence number.
func TestRearmOrdersLikeCancelAndAt(t *testing.T) {
	ms := func(n int) Time { return Time(time.Duration(n) * time.Millisecond) }
	script := func(tw *twin) {
		tw.post(ms(5), "a5")
		tw.arm(ms(5)) // equal timestamp: after a5
		tw.post(ms(5), "b5")
		tw.arm(ms(8)) // pending, later
		tw.arm(ms(3)) // pending, earlier
		tw.post(ms(3), "c3")
		tw.arm(ms(3)) // pending, same time: moves behind c3
		tw.s.RunUntil(ms(4))
		tw.arm(ms(4)) // after it fired, at now
		tw.post(ms(4), "d4")
		tw.s.RunUntil(ms(5))
		tw.arm(ms(10)) // after it fired, in the future
		tw.post(ms(10), "e10")
		tw.arm(ms(10)) // pending, same time again: moves behind e10
		tw.s.Run()
	}
	a, b := newTwin(true), newTwin(false)
	script(a)
	script(b)
	want := []string{"c3", "wake@3ms", "wake@4ms", "d4", "a5", "b5", "e10", "wake@10ms"}
	if strings.Join(b.fired, " ") != strings.Join(want, " ") {
		t.Fatalf("Cancel+At fired %v, want %v", b.fired, want)
	}
	if strings.Join(a.fired, " ") != strings.Join(b.fired, " ") {
		t.Fatalf("Rearm fired %v, Cancel+At fired %v", a.fired, b.fired)
	}
	if a.s.seq != b.s.seq || a.s.Fired() != b.s.Fired() {
		t.Fatalf("seq/fired %d/%d vs %d/%d", a.s.seq, a.s.Fired(), b.s.seq, b.s.Fired())
	}
}

// Property: any random interleaving of posts, re-arms and steps fires in
// the same order on the Rearm scheduler and its Cancel+At twin.
func TestRearmOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a, b := newTwin(true), newTwin(false)
		for i := 0; i < 64; i++ {
			op, d := r.Intn(3), Time(r.Intn(4))
			for _, tw := range []*twin{a, b} {
				switch op {
				case 0:
					tw.post(tw.s.Now()+d, "p"+strconv.Itoa(i))
				case 1:
					tw.arm(tw.s.Now() + d)
				default:
					tw.s.Step()
				}
			}
		}
		a.s.Run()
		b.s.Run()
		return strings.Join(a.fired, " ") == strings.Join(b.fired, " ")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRearmInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.After(time.Millisecond, "tick", func() {})
	s.Run()
	e := NewEvent("late", func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("re-arming in the past did not panic")
		}
	}()
	s.Rearm(&e, 0)
}

func TestNewEventIsNotPending(t *testing.T) {
	e := NewEvent("idle", func() {})
	if e.Pending() {
		t.Fatal("unqueued event reports pending")
	}
	s := NewScheduler()
	s.Cancel(&e) // cancelling an unqueued event is a no-op
	s.Rearm(&e, 0)
	if !e.Pending() || s.Pending() != 1 {
		t.Fatal("re-armed event not queued")
	}
}
