package looper

import (
	"testing"
	"testing/quick"
	"time"

	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

func newTestLooper() (*sim.Scheduler, *Looper) {
	s := sim.NewScheduler()
	return s, New(s, "ui")
}

func TestPostRunsMessage(t *testing.T) {
	s, l := newTestLooper()
	ran := false
	l.Post("m", time.Millisecond, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("message did not run")
	}
	if l.Processed() != 1 {
		t.Fatalf("Processed = %d", l.Processed())
	}
	if l.TotalBusy() != time.Millisecond {
		t.Fatalf("TotalBusy = %v", l.TotalBusy())
	}
}

func TestMessagesSerializeByCost(t *testing.T) {
	s, l := newTestLooper()
	var starts []sim.Time
	for i := 0; i < 3; i++ {
		l.Post("m", 10*time.Millisecond, func() { starts = append(starts, s.Now()) })
	}
	s.Run()
	want := []sim.Time{0, sim.Time(10 * time.Millisecond), sim.Time(20 * time.Millisecond)}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
}

func TestDelayedMessageWaits(t *testing.T) {
	s, l := newTestLooper()
	var at sim.Time
	l.PostDelayed(50*time.Millisecond, "late", time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != sim.Time(50*time.Millisecond) {
		t.Fatalf("ran at %v, want 50ms", at)
	}
}

func TestImmediateMessageOvertakesDelayed(t *testing.T) {
	s, l := newTestLooper()
	var order []string
	l.PostDelayed(100*time.Millisecond, "late", time.Millisecond, func() { order = append(order, "late") })
	l.Post("now", time.Millisecond, func() { order = append(order, "now") })
	s.Run()
	if len(order) != 2 || order[0] != "now" || order[1] != "late" {
		t.Fatalf("order = %v", order)
	}
}

func TestSameTimeIsFIFO(t *testing.T) {
	s, l := newTestLooper()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		l.Post("m", 0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNestedPostRunsAfterCurrent(t *testing.T) {
	s, l := newTestLooper()
	var order []string
	l.Post("outer", 5*time.Millisecond, func() {
		l.Post("inner", time.Millisecond, func() {
			order = append(order, "inner")
			if s.Now() != sim.Time(5*time.Millisecond) {
				t.Errorf("inner ran at %v, want 5ms (after outer's cost)", s.Now())
			}
		})
		order = append(order, "outer")
	})
	s.Run()
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v", order)
	}
}

func TestQuitDropsQueueAndRejectsPosts(t *testing.T) {
	s, l := newTestLooper()
	ran := false
	l.Post("m", time.Millisecond, func() { ran = true })
	l.Quit()
	if l.Post("rejected", 0, func() {}) {
		t.Fatal("post after quit reported queued")
	}
	if NewHandler(l, "h").PostDelayed(time.Millisecond, "rejected", 0, func() {}) {
		t.Fatal("handler post after quit reported queued")
	}
	s.Run()
	if ran {
		t.Fatal("message ran after quit")
	}
	if l.Processed() != 0 {
		t.Fatalf("Processed = %d after quit, want 0", l.Processed())
	}
	if !l.Quitted() {
		t.Fatal("Quitted = false")
	}
	if l.QueueLen() != 0 {
		t.Fatal("queue not dropped")
	}
}

func TestBusyObserverSeesEveryMessage(t *testing.T) {
	s, l := newTestLooper()
	var seen []string
	var total time.Duration
	l.SetBusyObserver(func(_ sim.Time, cost time.Duration, name string) {
		seen = append(seen, name)
		total += cost
	})
	l.Post("a", time.Millisecond, func() {})
	l.Post("b", 2*time.Millisecond, func() {})
	s.Run()
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Fatalf("seen = %v", seen)
	}
	if total != 3*time.Millisecond {
		t.Fatalf("total = %v", total)
	}
}

func TestHandlerPrefixesNames(t *testing.T) {
	s, l := newTestLooper()
	h := NewHandler(l, "async")
	var got string
	l.SetBusyObserver(func(_ sim.Time, _ time.Duration, name string) { got = name })
	h.Post("done", 0, func() {})
	s.Run()
	if got != "async:done" {
		t.Fatalf("name = %q", got)
	}
	if h.Looper() != l {
		t.Fatal("Looper() mismatch")
	}
}

func TestHandlerPostDelayed(t *testing.T) {
	s, l := newTestLooper()
	h := NewHandler(l, "h")
	var at sim.Time
	h.PostDelayed(30*time.Millisecond, "late", 0, func() { at = s.Now() })
	s.Run()
	if at != sim.Time(30*time.Millisecond) {
		t.Fatalf("at = %v", at)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s, l := newTestLooper()
	ran := false
	l.PostDelayed(-time.Second, "m", 0, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("did not run")
	}
}

func TestStringDescribes(t *testing.T) {
	_, l := newTestLooper()
	if got := l.String(); got == "" || l.Name() != "ui" {
		t.Fatalf("String/Name wrong: %q %q", got, l.Name())
	}
}

// Property: with k messages of equal cost c posted at time zero, message i
// starts exactly at i*c, and total busy time is k*c.
func TestSerializationProperty(t *testing.T) {
	f := func(k, cMicros uint8) bool {
		n := int(k%16) + 1
		c := time.Duration(int(cMicros)+1) * time.Microsecond
		s, l := newTestLooper()
		var starts []sim.Time
		for i := 0; i < n; i++ {
			l.Post("m", c, func() { starts = append(starts, s.Now()) })
		}
		s.Run()
		if len(starts) != n {
			return false
		}
		for i, st := range starts {
			if st != sim.Time(time.Duration(i)*c) {
				return false
			}
		}
		return l.TotalBusy() == time.Duration(n)*c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: messages never start before their delivery time.
func TestDeliveryTimeProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s, l := newTestLooper()
		ok := true
		for _, d := range delays {
			when := time.Duration(d) * time.Microsecond
			deadline := s.Now().Add(when)
			l.PostDelayed(when, "m", 10*time.Microsecond, func() {
				if s.Now() < deadline {
					ok = false
				}
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChargeExtendsCurrentMessage(t *testing.T) {
	s, l := newTestLooper()
	var second sim.Time
	l.Post("first", 0, func() { l.Charge(8 * time.Millisecond) })
	l.Post("second", 0, func() { second = s.Now() })
	s.Run()
	if second != sim.Time(8*time.Millisecond) {
		t.Fatalf("second ran at %v, want 8ms (after charge)", second)
	}
	if l.TotalBusy() != 8*time.Millisecond {
		t.Fatalf("TotalBusy = %v", l.TotalBusy())
	}
}

func TestChargeObservedByBusyObserver(t *testing.T) {
	s, l := newTestLooper()
	var names []string
	var costs []time.Duration
	l.SetBusyObserver(func(_ sim.Time, c time.Duration, n string) {
		names = append(names, n)
		costs = append(costs, c)
	})
	l.Post("phase", 0, func() { l.Charge(3 * time.Millisecond) })
	s.Run()
	// The zero-cost dispatch and the charge both report under the
	// message's name.
	if len(names) != 2 || names[1] != "phase" || costs[1] != 3*time.Millisecond {
		t.Fatalf("observer saw %v %v", names, costs)
	}
}

func TestChargeOutsideMessageOccupiesFromNow(t *testing.T) {
	s, l := newTestLooper()
	l.Charge(5 * time.Millisecond)
	var at sim.Time
	l.Post("after", 0, func() { at = s.Now() })
	s.Run()
	if at != sim.Time(5*time.Millisecond) {
		t.Fatalf("ran at %v, want 5ms", at)
	}
}

func TestChargeIgnoredWhenQuitOrNonPositive(t *testing.T) {
	_, l := newTestLooper()
	l.Charge(-time.Second)
	if l.TotalBusy() != 0 {
		t.Fatal("negative charge recorded")
	}
	l.Quit()
	l.Charge(time.Second)
	if l.TotalBusy() != 0 {
		t.Fatal("charge after quit recorded")
	}
}

func TestChargedBodyChargesWhatItReturns(t *testing.T) {
	s, l := newTestLooper()
	var names []string
	l.SetBusyObserver(func(_ sim.Time, _ time.Duration, n string) { names = append(names, n) })
	var second sim.Time
	l.PostMessage(Message{Name: "phase", Charged: func() time.Duration { return 6 * time.Millisecond }})
	l.Post("second", 0, func() { second = s.Now() })
	s.Run()
	if second != sim.Time(6*time.Millisecond) {
		t.Fatalf("second ran at %v, want 6ms (after the charged body)", second)
	}
	if l.TotalBusy() != 6*time.Millisecond {
		t.Fatalf("TotalBusy = %v, want 6ms", l.TotalBusy())
	}
	if len(names) != 3 || names[1] != "phase" {
		t.Fatalf("busy observer saw %v, want the charge under the message name", names)
	}
}

func TestCatchReceivesPanicAndNextMessageRuns(t *testing.T) {
	s, l := newTestLooper()
	npe := &view.NullPointerError{ViewID: 7, ViewType: "ImageView", Op: "setImage"}
	var caught any
	l.PostMessage(Message{Name: "app", Run: func() { panic(npe) }, Catch: func(r any) { caught = r }})
	next := false
	l.Post("next", 0, func() { next = true })
	s.Run()
	if caught != npe {
		t.Fatalf("Catch got %v, want the NullPointerError", caught)
	}
	if !next {
		t.Fatal("message after a caught panic did not run")
	}
	if l.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2", l.Processed())
	}
	// A caught panic ends the dispatch normally: the looper is not left
	// mid-dispatch, so it can still be forked.
	if _, err := l.Fork(sim.NewScheduler()); err != nil {
		t.Fatalf("fork after a caught panic: %v", err)
	}
}

func TestPanicWithoutCatchPropagates(t *testing.T) {
	s, l := newTestLooper()
	npe := &view.NullPointerError{ViewID: 7, ViewType: "ImageView", Op: "setImage"}
	l.Post("binder", 0, func() { panic(npe) })
	defer func() {
		if r := recover(); r != npe {
			t.Fatalf("Step recovered %v, want the NullPointerError to propagate", r)
		}
	}()
	s.Step()
	t.Fatal("panic without Catch did not propagate out of Step")
}

func TestCaughtPanicInChargedBodyChargesNothing(t *testing.T) {
	s, l := newTestLooper()
	l.PostMessage(Message{
		Name:    "phase",
		Charged: func() time.Duration { panic(&view.NullPointerError{Op: "x"}) },
		Catch:   func(any) {},
	})
	var next sim.Time
	l.Post("next", 0, func() { next = s.Now() })
	s.Run()
	if l.TotalBusy() != 0 {
		t.Fatalf("TotalBusy = %v, want 0 (a caught panic charges nothing)", l.TotalBusy())
	}
	if next != 0 {
		t.Fatalf("next ran at %v, want 0", next)
	}
}

func TestForkedPumpIsIndependent(t *testing.T) {
	s, l := newTestLooper()
	l.Post("warm", time.Millisecond, func() {})
	s.Run()
	s2, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	f, err := l.Fork(s2)
	if err != nil {
		t.Fatal(err)
	}
	var parent, child []string
	l.PostDelayed(5*time.Millisecond, "p", 0, func() { parent = append(parent, "p") })
	f.PostDelayed(2*time.Millisecond, "c", 0, func() { child = append(child, "c") })
	if s.Pending() != 1 || s2.Pending() != 1 {
		t.Fatalf("pending = %d/%d, want one pump per scheduler", s.Pending(), s2.Pending())
	}
	s2.Run()
	if len(child) != 1 || len(parent) != 0 {
		t.Fatalf("running the fork's scheduler ran parent=%v child=%v", parent, child)
	}
	l.Quit()
	f.Post("c2", 0, func() { child = append(child, "c2") })
	s2.Run()
	s.Run()
	if len(child) != 2 || len(parent) != 0 {
		t.Fatalf("after parent quit: parent=%v child=%v", parent, child)
	}
}
