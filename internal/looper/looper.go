// Package looper reimplements Android's Looper/MessageQueue/Handler trio
// on the virtual clock. Every app process has one UI looper (the activity
// thread); only code running on it may touch the view tree, exactly as on
// Android. Asynchronous tasks run elsewhere and deliver their results by
// posting messages here — the delivery point where RCHDroid's lazy
// migration intercepts late view updates.
//
// Messages carry an execution cost. The looper serialises them: a message
// begins no earlier than its delivery time and no earlier than the end of
// the previous message, and occupies the (virtual) thread for its cost.
// The accumulated busy time drives the CPU-usage traces of Fig 9.
package looper

import (
	"fmt"
	"time"

	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// Message is one unit of work queued on a looper. The queue holds
// messages by value, so posting one allocates nothing of its own.
type Message struct {
	// Name labels the message in traces.
	Name string
	// When is the earliest virtual time the message may run. The looper
	// sets it when the message is posted.
	When sim.Time
	// Cost is how long the message occupies the thread.
	Cost time.Duration
	// Run is the message body.
	Run func()
	// Charged, if set, is the body of a message whose cost is only known
	// after it ran: the looper runs it in place of Run and charges the
	// duration it returns to the message.
	Charged func() time.Duration
	// Catch, if set, receives any panic escaping the body, and the
	// message then ends normally having charged nothing after the fact.
	// Without Catch a panic propagates out of the scheduler's Step.
	Catch func(any)

	seq uint64
}

// Fault is a per-message fault decision returned by a FaultInjector.
// The zero value means "deliver normally".
type Fault struct {
	// Stall occupies the thread before the message may run — an injected
	// hiccup (GC pause, scheduler preemption). It is order-preserving:
	// every queued message simply runs later.
	Stall time.Duration
	// Delay shifts this message's delivery time alone, which may reorder
	// it against messages posted after it. Callers must only delay
	// messages whose ordering contract allows it (async results, input
	// events) — delaying one phase of a lifecycle chain reorders the
	// chain.
	Delay time.Duration
	// Drop swallows the message: it never runs, and the post reports
	// false to the poster.
	Drop bool
}

// FaultInjector is consulted on every post with the message's name and
// cost; it returns the fault (if any) to apply. Injectors must be
// deterministic functions of their own state — the looper calls them
// exactly once per post, in posting order.
type FaultInjector func(name string, cost time.Duration) Fault

// SetFaultInjector installs (or, with nil, removes) the fault injector.
func (l *Looper) SetFaultInjector(fn FaultInjector) { l.fault = fn }

// SetDispatchObserver installs (or, with nil, removes) a completion
// observer called after every dispatched message with the message name,
// its start time and its final occupancy.
func (l *Looper) SetDispatchObserver(fn func(name string, start sim.Time, occupancy time.Duration)) {
	l.onDispatch = fn
}

// Looper is a single-threaded message processor.
type Looper struct {
	name      string
	sched     *sim.Scheduler
	queue     []Message
	seq       uint64
	busyUntil sim.Time
	totalBusy time.Duration
	processed uint64
	quit      bool
	fault     FaultInjector

	// pump is the looper's one wakeup event, re-armed in place for the
	// head of the queue so dispatching allocates nothing.
	pump sim.Event

	// running is set while a message body runs; curName is that
	// message's name, which Charge attributes to.
	running bool
	curName string

	// onDispatch, if set, observes every completed dispatch with its
	// total occupancy (cost plus charges plus stalls). The guard's
	// ANR-style watchdog hangs off this seam.
	onDispatch func(name string, start sim.Time, occupancy time.Duration)

	// onBusy, if set, observes every executed message (used by the
	// metrics recorder to compute CPU usage over time).
	onBusy func(start sim.Time, cost time.Duration, name string)

	// tracer, if set, records every dispatch, charge, stall and drop on
	// track as structured trace events. A nil tracer costs one branch.
	tracer *trace.Tracer
	track  trace.TrackID
}

// New returns a looper named name driving its messages on sched.
func New(sched *sim.Scheduler, name string) *Looper {
	l := &Looper{name: name, sched: sched}
	l.pump = sim.NewEvent(name+":pump", l.dispatch)
	return l
}

// Name returns the looper's label.
func (l *Looper) Name() string { return l.name }

// Scheduler exposes the underlying scheduler, for components that need to
// schedule raw events (e.g. async task completion).
func (l *Looper) Scheduler() *sim.Scheduler { return l.sched }

// SetTracer points the looper's structured instrumentation at tr,
// emitting onto track: executed messages become spans (instants when
// zero-cost), charges become spans under their attributed name, and
// stalls and drops become instants. A nil tracer disables it.
func (l *Looper) SetTracer(tr *trace.Tracer, track trace.TrackID) {
	l.tracer = tr
	l.track = track
}

// SetBusyObserver installs a callback invoked for each executed message
// with its start time and cost.
func (l *Looper) SetBusyObserver(fn func(start sim.Time, cost time.Duration, name string)) {
	l.onBusy = fn
}

// TotalBusy returns the cumulative virtual time spent executing messages.
func (l *Looper) TotalBusy() time.Duration { return l.totalBusy }

// Processed returns how many messages have been executed.
func (l *Looper) Processed() uint64 { return l.processed }

// QueueLen returns the number of queued (not yet executed) messages.
func (l *Looper) QueueLen() int { return len(l.queue) }

// Quit stops the looper; queued messages are dropped and future posts are
// rejected.
func (l *Looper) Quit() {
	l.quit = true
	l.queue = nil
	l.sched.Cancel(&l.pump)
}

// Quitted reports whether Quit was called.
func (l *Looper) Quitted() bool { return l.quit }

// Post enqueues a message to run as soon as the thread is free. It
// reports whether the message was queued: false after Quit, mirroring
// Handler.post returning false after Looper.quit, and false when the
// fault injector dropped it.
func (l *Looper) Post(name string, cost time.Duration, fn func()) bool {
	return l.post(0, Message{Name: name, Cost: cost, Run: fn})
}

// PostDelayed enqueues a message that becomes runnable after delay. It
// reports whether the message was queued, as Post does.
func (l *Looper) PostDelayed(delay time.Duration, name string, cost time.Duration, fn func()) bool {
	return l.post(delay, Message{Name: name, Cost: cost, Run: fn})
}

// PostMessage enqueues m, with its Charged and Catch hooks, to run as
// soon as the thread is free. It reports whether m was queued, as Post
// does.
func (l *Looper) PostMessage(m Message) bool {
	return l.post(0, m)
}

func (l *Looper) post(delay time.Duration, m Message) bool {
	if l.quit {
		return false
	}
	if delay < 0 {
		delay = 0
	}
	if l.fault != nil {
		f := l.fault(m.Name, m.Cost)
		if f.Drop {
			l.tracer.Instant(l.track, m.Name, "looper", trace.Arg{Key: "dropped", Val: true})
			return false
		}
		if f.Delay > 0 {
			l.tracer.Instant(l.track, m.Name, "looper", trace.Arg{Key: "delayed", Val: f.Delay})
			delay += f.Delay
		}
		if f.Stall > 0 {
			l.Stall(f.Stall)
		}
	}
	m.When = l.sched.Now().Add(delay)
	m.seq = l.seq
	l.seq++
	l.insert(m)
	l.schedulePump()
	return true
}

// Stall occupies the thread for d without doing work: queued messages keep
// their relative order but everything runs later. Unlike Charge it adds
// nothing to TotalBusy and is invisible to the busy observer — a stall
// models lost time (GC pause, preemption), not attributed work.
func (l *Looper) Stall(d time.Duration) {
	if d <= 0 || l.quit {
		return
	}
	l.tracer.Instant(l.track, "stall", "looper", trace.Arg{Key: "dur", Val: d})
	start := l.busyUntil
	if now := l.sched.Now(); start < now {
		start = now
	}
	l.busyUntil = start.Add(d)
	l.schedulePump()
}

// insert keeps the queue ordered by (When, seq).
func (l *Looper) insert(m Message) {
	i := len(l.queue)
	for i > 0 {
		p := &l.queue[i-1]
		if p.When < m.When || (p.When == m.When && p.seq < m.seq) {
			break
		}
		i--
	}
	l.queue = append(l.queue, Message{})
	copy(l.queue[i+1:], l.queue[i:])
	l.queue[i] = m
}

// schedulePump (re)arms the wakeup event for the head of the queue.
func (l *Looper) schedulePump() {
	if l.quit || len(l.queue) == 0 {
		return
	}
	at := l.queue[0].When
	if l.busyUntil > at {
		at = l.busyUntil
	}
	if l.pump.Pending() && l.pump.At <= at {
		return // the pump already fires at or before the needed time
	}
	l.sched.Rearm(&l.pump, at)
}

// dispatch runs the first eligible message at the current instant and
// re-arms the pump.
func (l *Looper) dispatch() {
	if l.quit {
		return
	}
	now := l.sched.Now()
	if now < l.busyUntil {
		l.schedulePump()
		return
	}
	// Pop the head if it is eligible, shifting the queue in place so
	// insert reuses its backing array.
	if len(l.queue) > 0 && l.queue[0].When <= now {
		m := l.queue[0]
		last := len(l.queue) - 1
		copy(l.queue, l.queue[1:])
		l.queue[last] = Message{}
		l.queue = l.queue[:last]
		l.busyUntil = now.Add(m.Cost)
		l.totalBusy += m.Cost
		l.processed++
		if l.onBusy != nil {
			l.onBusy(now, m.Cost, m.Name)
		}
		if l.tracer.Enabled() {
			// Dispatch with a real cost is a span; a zero-cost control
			// message is a point on the timeline. The wait argument is the
			// queueing delay past the message's earliest runnable time.
			if m.Cost > 0 {
				l.tracer.Complete(l.track, m.Name, "looper", now, m.Cost,
					trace.Arg{Key: "wait", Val: now.Sub(m.When)})
			} else {
				l.tracer.Instant(l.track, m.Name, "looper")
			}
		}
		l.running, l.curName = true, m.Name
		l.run(m)
		l.running = false
		if l.onDispatch != nil {
			// Occupancy measured after Run so it includes every Charge
			// and injected stall folded into the message.
			l.onDispatch(m.Name, now, l.busyUntil.Sub(now))
		}
	}
	l.schedulePump()
}

// run executes m's body, charging what a Charged body reports. Only a
// message carrying Catch pays for a deferred recover: it hands a panic
// to Catch and charges nothing; any other panic propagates.
func (l *Looper) run(m Message) {
	if m.Catch != nil {
		defer func() {
			if r := recover(); r != nil {
				m.Catch(r)
			}
		}()
	}
	if m.Charged != nil {
		l.Charge(m.Charged())
		return
	}
	m.Run()
}

// BusyUntil returns the virtual time the thread becomes free again.
func (l *Looper) BusyUntil() sim.Time { return l.busyUntil }

// Charge extends the currently-executing message's occupancy by cost.
// It exists for work whose cost is only known after the fact — e.g. a
// lifecycle phase whose cost depends on how many views the app's own
// OnCreate inflated. Messages already queued at this instant wait for the
// extended busy window. Charging outside a message occupies the thread
// starting now.
func (l *Looper) Charge(cost time.Duration) {
	name := "charge"
	if l.running {
		name = l.curName
	}
	l.ChargeNamed(cost, name)
}

// ChargeNamed is Charge with an explicit name reported to the busy
// observer — used when one message performs work that should be
// attributed under a more specific label (e.g. the launch pipeline's
// pluggable extra phase).
func (l *Looper) ChargeNamed(cost time.Duration, name string) {
	if cost <= 0 || l.quit {
		return
	}
	start := l.busyUntil
	if now := l.sched.Now(); start < now {
		start = now
	}
	l.busyUntil = start.Add(cost)
	l.totalBusy += cost
	if l.onBusy != nil {
		l.onBusy(start, cost, name)
	}
	l.tracer.Complete(l.track, name, "looper", start, cost)
}

func (l *Looper) String() string {
	return fmt.Sprintf("looper(%s, queued=%d, busy=%v)", l.name, len(l.queue), l.totalBusy)
}

// Handler mirrors android.os.Handler: a named front-end to a looper.
type Handler struct {
	looper *Looper
	tag    string
}

// NewHandler returns a handler posting to l with names prefixed by tag.
func NewHandler(l *Looper, tag string) *Handler {
	return &Handler{looper: l, tag: tag}
}

// Looper returns the underlying looper.
func (h *Handler) Looper() *Looper { return h.looper }

// Post enqueues fn with the given cost and reports whether it was
// queued.
func (h *Handler) Post(name string, cost time.Duration, fn func()) bool {
	return h.looper.Post(h.tag+":"+name, cost, fn)
}

// PostDelayed enqueues fn to become runnable after delay and reports
// whether it was queued.
func (h *Handler) PostDelayed(delay time.Duration, name string, cost time.Duration, fn func()) bool {
	return h.looper.PostDelayed(delay, h.tag+":"+name, cost, fn)
}
