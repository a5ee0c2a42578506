// Package guard is RCHDroid's supervision and graceful-degradation
// layer. The paper's transparency claim is absolute — the user must
// never observe behaviour worse than stock Android 10 — so when the
// shadow machinery itself misbehaves (a handling phase that stalls past
// its deadline, a saved-state transfer that corrupts in flight, an
// invariant broken after a flip) the guard degrades the affected
// activity to the stock restart path instead of letting a third, worse
// behaviour reach the user.
//
// Four mechanisms cooperate:
//
//   - an ANR-style watchdog on the virtual clock, armed around each
//     core handling phase, the end-to-end handling interval, deferred
//     migration flushes and every looper dispatch;
//   - checksummed saved-state transfer with bounded deterministic
//     retry/backoff;
//   - an in-process self-check that validates RCHDroid's structural
//     invariants right after each flip;
//   - a per-activity degradation ladder: Active → Quarantined (coin
//     flip disabled, shadow released, changes routed through the stock
//     restart handler) → back to Active after K clean stock-handled
//     changes, with a process-level circuit breaker when too many
//     activities quarantine at once.
//
// Every decision — arm, fire, retry, quarantine, recover, breaker-open
// — is a traced instant with its inputs, and is summarised in the
// rchsim report. A nil *Guard is valid and inert, so the instrumented
// seams cost one branch when supervision is off.
package guard

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/bundle"
	"rchdroid/internal/chaos"
	"rchdroid/internal/obs"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// Config holds the supervision parameters. The zero value is not
// useful; start from DefaultConfig.
type Config struct {
	// HandlingDeadline bounds the end-to-end runtime-change handling
	// interval (config change at the ATMS → resume). It matches the
	// transparency bound the differential oracle enforces, so a change
	// the oracle would flag is exactly a change the watchdog catches.
	HandlingDeadline time.Duration
	// PhaseDeadline bounds each core handling phase (HandleRuntimeChange,
	// HandleSunnyLaunch, HandleFlip) from entry to the activity's resume.
	PhaseDeadline time.Duration
	// FlushDeadline bounds a deferred lazy-migration flush: armed when
	// the flush is first deferred, disarmed when it finally lands.
	FlushDeadline time.Duration
	// DispatchDeadline bounds a single looper dispatch's occupancy
	// (cost + charges + stalls). Overruns escalate to a quarantine only
	// while a handling is in flight for some class — otherwise they are
	// counted but unattributable.
	DispatchDeadline time.Duration
	// TransferRetries is how many times a failed saved-state transfer is
	// retried before the guard declares it failed (attempts = retries+1).
	TransferRetries int
	// RetryBackoff is the first retry's backoff; attempt i waits
	// RetryBackoff << (i-1). The backoff is charged to the UI thread, so
	// retries cost deterministic virtual time.
	RetryBackoff time.Duration
	// ProbationK is how many consecutive clean stock-handled changes a
	// quarantined activity must survive before RCHDroid is re-enabled.
	ProbationK int
	// BreakerThreshold opens the process-level circuit breaker when this
	// many activity classes are quarantined at once. An open breaker
	// routes every class through the stock path for the rest of the run.
	BreakerThreshold int
}

// DefaultConfig returns the supervision defaults used by rchsim -guard
// and the guarded oracle sweep.
func DefaultConfig() Config {
	return Config{
		HandlingDeadline: time.Second,
		PhaseDeadline:    time.Second,
		FlushDeadline:    1200 * time.Millisecond,
		DispatchDeadline: 800 * time.Millisecond,
		TransferRetries:  3,
		RetryBackoff:     5 * time.Millisecond,
		ProbationK:       2,
		BreakerThreshold: 3,
	}
}

// Mode is one rung of the per-activity degradation ladder.
type Mode int

const (
	// ModeActive — RCHDroid handles this activity's runtime changes.
	ModeActive Mode = iota
	// ModeQuarantined — changes route through the stock restart path.
	ModeQuarantined
)

// String names the mode for reports.
func (m Mode) String() string {
	if m == ModeQuarantined {
		return "quarantined"
	}
	return "active"
}

// Decision is one supervision event, kept (bounded) for the report.
type Decision struct {
	At     sim.Time
	Kind   string // anr | retry | transferFail | quarantine | recover | breakerOpen | selfCheckFail
	Class  string
	Detail string
}

// String formats the decision for the report.
func (d Decision) String() string {
	return fmt.Sprintf("%10.3fms %-12s %-24s %s",
		float64(time.Duration(d.At))/float64(time.Millisecond), d.Kind, d.Class, d.Detail)
}

// maxDecisions bounds the decision log; past the cap, counters still
// advance but records are discarded.
const maxDecisions = 1024

// ladder is the per-class supervision state.
type ladder struct {
	mode           Mode
	cause          string
	quarantinedAt  sim.Time
	cleanStock     int  // clean stock-handled changes since quarantine
	pendingStock   bool // a stock-routed change is in flight
	releasePending bool // shadow release deferred until the next resume
	quarantines    int
	recoveries     int
}

// Summary is the one tally of a guard's supervision outcomes — plain
// data, safe for %+v-based byte-identity comparisons. The zero value
// means "guard disabled".
type Summary struct {
	Enabled bool
	// ANRs counts fired watchdog deadlines, dispatch overruns included.
	ANRs             int
	DispatchOverruns int
	// Retries counts retried saved-state transfer attempts;
	// TransferFailures counts transfers that failed every attempt.
	Retries          int
	TransferFailures int
	Quarantines      int
	Recoveries       int
	// BreakerOpens is 0 or 1: the circuit breaker is final for the run.
	BreakerOpens      int
	SelfChecks        int
	SelfCheckFailures int
	// FirstQuarantineAt is the virtual time of the first quarantine, or
	// 0 — the oracle correlates it against the first injected fault.
	FirstQuarantineAt sim.Time
	// Modes maps each supervised class to its final ladder mode.
	Modes map[string]string
}

// armed is one pending watchdog deadline.
type armed struct {
	deadline sim.Time
	ev       *sim.Event
}

// Guard supervises one process's RCHDroid machinery. Construct with
// New; a nil *Guard no-ops everywhere.
type Guard struct {
	cfg   Config
	sched *sim.Scheduler
	proc  *app.Process
	sys   *atms.ATMS

	classes map[string]*ladder
	watch   map[string]map[string]*armed // class → phase → deadline

	// sum holds the outcome counters; its Modes stay nil (Summary reads
	// them off the ladders).
	sum Summary

	// release, set by core.Install, releases the class's shadow
	// machinery (shadow instance, pending snapshot) on quarantine. It
	// returns false when a handling is still in flight and the release
	// must be retried at a later resume.
	release func(class string) bool
	// aux, set by core.Install, contributes extra self-check clauses
	// that need core-side state (essence-map coverage, dirty shadows).
	aux func() []string

	decisions []Decision
	truncated int

	// obsShard, when set, mirrors every decision kind into an aggregate
	// metrics counter (guard_<kind>_total). Decisions derive from the
	// seed alone, so the counters live in the canonical sim domain.
	obsShard *obs.Shard
	obsKinds map[string]*obs.Counter
}

// New returns a guard supervising proc against sys. Either tracer may
// be observed lazily through the process, so New works before tracing
// is configured.
func New(cfg Config, sched *sim.Scheduler, proc *app.Process, sys *atms.ATMS) *Guard {
	return &Guard{
		cfg:     cfg,
		sched:   sched,
		proc:    proc,
		sys:     sys,
		classes: make(map[string]*ladder),
		watch:   make(map[string]map[string]*armed),
		sum:     Summary{Enabled: true},
	}
}

// Config returns the active parameters.
func (g *Guard) Config() Config { return g.cfg }

// Enabled reports whether supervision is on — false for nil.
func (g *Guard) Enabled() bool { return g != nil }

// entry returns (creating on demand) the class's ladder state.
func (g *Guard) entry(class string) *ladder {
	l := g.classes[class]
	if l == nil {
		l = &ladder{}
		g.classes[class] = l
	}
	return l
}

// SetObs mirrors every future decision into the shard's counters. A
// nil shard leaves observation off; call before the run starts so the
// counter set cannot depend on when observation was enabled.
func (g *Guard) SetObs(sh *obs.Shard) {
	if g == nil || sh == nil {
		return
	}
	g.obsShard = sh
	g.obsKinds = make(map[string]*obs.Counter)
}

// kindMetricName turns a camelCase decision kind into its counter name
// ("transferFail" → "guard_transfer_fail_total").
func kindMetricName(kind string) string {
	var sb strings.Builder
	sb.WriteString("guard_")
	for _, r := range kind {
		if r >= 'A' && r <= 'Z' {
			sb.WriteByte('_')
			sb.WriteByte(byte(r - 'A' + 'a'))
			continue
		}
		sb.WriteRune(r)
	}
	sb.WriteString("_total")
	return sb.String()
}

// observeKind bumps the decision kind's counter; past the decision-log
// cap the counters keep advancing, like the Summary tally does.
func (g *Guard) observeKind(kind string) {
	if g.obsShard == nil {
		return
	}
	c := g.obsKinds[kind]
	if c == nil {
		c = g.obsShard.Counter(kindMetricName(kind), "guard decisions of kind "+kind, obs.Sim)
		g.obsKinds[kind] = c
	}
	c.Inc()
}

// emit mirrors a decision onto the trace timeline (as a guard-category
// instant on the app's UI track), into the aggregate metrics shard and
// into the bounded decision log.
func (g *Guard) emit(kind, class, detail string, args ...trace.Arg) {
	g.observeKind(kind)
	if tr, track := g.proc.Thread().Trace(); tr.Enabled() {
		args = append(args, trace.Arg{Key: "class", Val: class})
		tr.Instant(track, "guard:"+kind, "guard", args...)
	}
	if len(g.decisions) >= maxDecisions {
		g.truncated++
		return
	}
	g.decisions = append(g.decisions, Decision{At: g.sched.Now(), Kind: kind, Class: class, Detail: detail})
}

// deadlineFor maps a phase name to its configured deadline.
func (g *Guard) deadlineFor(phase string) time.Duration {
	switch phase {
	case "handling":
		return g.cfg.HandlingDeadline
	case "migrationFlush":
		return g.cfg.FlushDeadline
	default:
		return g.cfg.PhaseDeadline
	}
}

// Allow reports whether RCHDroid may handle a runtime change for the
// class; false routes the change through the stock restart path.
func (g *Guard) Allow(class string) bool {
	if g == nil {
		return true
	}
	if g.sum.BreakerOpens > 0 {
		return false
	}
	return g.entry(class).mode == ModeActive
}

// NoteStockRoute records that a runtime change for the class is being
// handled by the stock path — the probation counter credits it once the
// activity resumes cleanly.
func (g *Guard) NoteStockRoute(class string) {
	if g == nil {
		return
	}
	e := g.entry(class)
	e.pendingStock = true
	g.emit("stockRoute", class, "routing change via stock restart",
		trace.Arg{Key: "cause", Val: e.cause})
}

// ArmPhase arms (or re-arms) the watchdog for a named phase of the
// class. The deadline timer fires on the virtual clock even while the
// UI thread is stalled — exactly the property an ANR watchdog needs.
// For the migration-flush phase an existing deadline is kept, so a
// flush deferred repeatedly is still measured from its first deferral.
func (g *Guard) ArmPhase(class, phase string) {
	if g == nil || class == "" {
		return
	}
	d := g.deadlineFor(phase)
	if d <= 0 {
		return
	}
	pm := g.watch[class]
	if pm == nil {
		pm = make(map[string]*armed)
		g.watch[class] = pm
	}
	if old := pm[phase]; old != nil {
		if phase == "migrationFlush" {
			return
		}
		g.sched.Cancel(old.ev)
	}
	a := &armed{deadline: g.sched.Now().Add(d)}
	a.ev = g.sched.At(a.deadline, "guard:watchdog:"+phase, func() {
		g.fire(class, phase)
	})
	pm[phase] = a
	g.emit("arm", class, fmt.Sprintf("%s deadline %v", phase, d),
		trace.Arg{Key: "phase", Val: phase},
		trace.Arg{Key: "deadline", Val: d})
}

// DisarmPhase cancels the phase watchdog, recording the margin left
// before the deadline. A phase that was never armed is a no-op.
func (g *Guard) DisarmPhase(class, phase string) {
	if g == nil {
		return
	}
	pm := g.watch[class]
	a := pm[phase]
	if a == nil {
		return
	}
	delete(pm, phase)
	g.sched.Cancel(a.ev)
	margin := a.deadline.Sub(g.sched.Now())
	g.emit("disarm", class, fmt.Sprintf("%s margin %v", phase, margin),
		trace.Arg{Key: "phase", Val: phase},
		trace.Arg{Key: "margin", Val: margin})
}

// fire is the watchdog expiry: the phase missed its deadline, which is
// this simulator's ANR. The class is quarantined.
func (g *Guard) fire(class, phase string) {
	pm := g.watch[class]
	if pm == nil || pm[phase] == nil {
		return
	}
	delete(pm, phase)
	if g.proc.Crashed() {
		return
	}
	g.sum.ANRs++
	g.emit("anr", class, fmt.Sprintf("%s missed %v deadline", phase, g.deadlineFor(phase)),
		trace.Arg{Key: "phase", Val: phase},
		trace.Arg{Key: "deadline", Val: g.deadlineFor(phase)})
	g.Quarantine(class, "anr:"+phase)
}

// cancelWatch cancels every armed deadline for the class without
// recording margins (used on quarantine, where the phases did not
// complete).
func (g *Guard) cancelWatch(class string) {
	for _, a := range g.watch[class] {
		g.sched.Cancel(a.ev)
	}
	delete(g.watch, class)
}

// OnDispatch is the looper seam: called after every UI dispatch with
// its final occupancy. An overrun past DispatchDeadline is an ANR; it
// escalates to a quarantine only when attributable — some class has a
// handling in flight (an armed phase watchdog).
func (g *Guard) OnDispatch(name string, start sim.Time, occupancy time.Duration) {
	if g == nil {
		return
	}
	if g.cfg.DispatchDeadline <= 0 || occupancy <= g.cfg.DispatchDeadline {
		return
	}
	if g.proc.Crashed() {
		return
	}
	g.sum.DispatchOverruns++
	class := g.firstArmedClass()
	g.sum.ANRs++
	g.emit("anr", class, fmt.Sprintf("dispatch %s occupied %v (limit %v)", name, occupancy, g.cfg.DispatchDeadline),
		trace.Arg{Key: "phase", Val: "dispatch:" + name},
		trace.Arg{Key: "occupancy", Val: occupancy},
		trace.Arg{Key: "deadline", Val: g.cfg.DispatchDeadline})
	if class != "" {
		g.Quarantine(class, "anr:dispatch:"+name)
	}
}

// firstArmedClass returns the lexically first class with an armed phase
// watchdog, or "" — the deterministic attribution for a dispatch ANR.
func (g *Guard) firstArmedClass() string {
	var names []string
	for c, pm := range g.watch {
		if len(pm) > 0 {
			names = append(names, c)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[0]
}

// Transfer performs one checksummed saved-state transfer: snapshot via
// save, hash, push through the fault model, re-hash on arrival. A
// mismatched or dropped arrival is retried up to TransferRetries times
// with deterministic exponential backoff; the accumulated backoff is
// returned so the caller can charge it to the UI thread. ok=false means
// every attempt failed and the caller must degrade.
func (g *Guard) Transfer(class string, save func() *bundle.Bundle, fault func(attempt int) chaos.TransferFault) (*bundle.Bundle, time.Duration, bool) {
	if g == nil {
		b := save()
		if fault != nil {
			if got := fault(0).Apply(b); got != nil {
				return got, 0, true
			}
			return bundle.New(), 0, true
		}
		return b, 0, true
	}
	attempts := g.cfg.TransferRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	var backoff time.Duration
	for i := 0; i < attempts; i++ {
		b := save()
		want := b.Checksum()
		got := b
		if fault != nil {
			got = fault(i).Apply(b)
		}
		if got.Checksum() == want {
			return got, backoff, true
		}
		cause := "corrupt"
		if got == nil {
			cause = "dropped"
		}
		if i == attempts-1 {
			break
		}
		wait := g.cfg.RetryBackoff << uint(i)
		backoff += wait
		g.sum.Retries++
		g.emit("retry", class, fmt.Sprintf("transfer %s, attempt %d, backoff %v", cause, i+1, wait),
			trace.Arg{Key: "attempt", Val: i + 1},
			trace.Arg{Key: "cause", Val: cause},
			trace.Arg{Key: "backoff", Val: wait})
	}
	g.sum.TransferFailures++
	g.emit("transferFail", class, fmt.Sprintf("all %d attempts failed", attempts),
		trace.Arg{Key: "attempts", Val: attempts})
	return nil, backoff, false
}

// Quarantine drops the class to the stock path: its coin flip is
// disabled, its shadow released at the class's next resume, and the
// breaker consulted. Idempotent while already quarantined.
//
// The release is always deferred: a watchdog often fires while a
// handling is still limping through its (stalled) phases, and releasing
// the shadow instance at that instant would destroy the very activity a
// queued flip is about to bring back — turning a slow handling into a
// lost foreground. Resumes are not settled-points either (a stale
// notification from the previous handling can land mid-flight), so the
// releaser itself reports whether it could release; until it does, the
// release stays pending and is retried at each resume. If the class
// never resumes again, the stock-route entry path sweeps the leftover
// shadow on the next change.
func (g *Guard) Quarantine(class, cause string) {
	if g == nil || class == "" {
		return
	}
	e := g.entry(class)
	if e.mode == ModeQuarantined {
		return
	}
	inFlight := len(g.watch[class]) > 0
	g.cancelWatch(class)
	e.mode = ModeQuarantined
	e.cause = cause
	e.cleanStock = 0
	e.pendingStock = false
	e.quarantinedAt = g.sched.Now()
	e.quarantines++
	g.sum.Quarantines++
	if g.sum.FirstQuarantineAt == 0 {
		g.sum.FirstQuarantineAt = g.sched.Now()
	}
	g.emit("quarantine", class, cause,
		trace.Arg{Key: "cause", Val: cause},
		trace.Arg{Key: "inFlight", Val: inFlight})
	if g.release != nil {
		e.releasePending = true
	}
	if g.sum.BreakerOpens == 0 && g.quarantinedCount() >= g.cfg.BreakerThreshold {
		g.sum.BreakerOpens++
		g.emit("breakerOpen", class,
			fmt.Sprintf("%d classes quarantined (threshold %d)", g.quarantinedCount(), g.cfg.BreakerThreshold),
			trace.Arg{Key: "quarantined", Val: g.quarantinedCount()},
			trace.Arg{Key: "threshold", Val: g.cfg.BreakerThreshold})
	}
}

// quarantinedCount counts currently quarantined classes.
func (g *Guard) quarantinedCount() int {
	n := 0
	for _, e := range g.classes {
		if e.mode == ModeQuarantined {
			n++
		}
	}
	return n
}

// OnResumed is the ATMS seam: every resume notification disarms the
// class's watchdogs, applies a deferred shadow release, and advances
// probation — a clean stock-routed change counts toward recovery, and
// after ProbationK of them RCHDroid is re-enabled (unless the breaker
// is open, which is final for the run).
func (g *Guard) OnResumed(token int) {
	if g == nil {
		return
	}
	a := g.proc.Thread().Activity(token)
	if a == nil {
		return
	}
	class := a.Class().Name
	// Disarm in sorted phase order so the margin instants land in a
	// deterministic order.
	if pm := g.watch[class]; len(pm) > 0 {
		phases := make([]string, 0, len(pm))
		for ph := range pm {
			phases = append(phases, ph)
		}
		sort.Strings(phases)
		for _, ph := range phases {
			g.DisarmPhase(class, ph)
		}
	}
	e := g.entry(class)
	if e.releasePending && g.release != nil && g.release(class) {
		e.releasePending = false
	}
	if e.mode == ModeQuarantined && e.pendingStock {
		e.pendingStock = false
		e.cleanStock++
		g.emit("probation", class, fmt.Sprintf("clean stock change %d/%d", e.cleanStock, g.cfg.ProbationK),
			trace.Arg{Key: "clean", Val: e.cleanStock},
			trace.Arg{Key: "needed", Val: g.cfg.ProbationK})
		if g.sum.BreakerOpens == 0 && g.cfg.ProbationK > 0 && e.cleanStock >= g.cfg.ProbationK {
			e.mode = ModeActive
			e.cause = ""
			e.cleanStock = 0
			e.recoveries++
			g.sum.Recoveries++
			g.emit("recover", class, "probation passed, RCHDroid re-enabled")
		}
	}
}

// SelfCheck validates RCHDroid's structural invariants in-process —
// the lightweight in-situ cousin of oracle.CheckInvariants, run after
// each flip. Any violation quarantines the class. The returned issues
// are for tests and logs.
func (g *Guard) SelfCheck(class string) []string {
	if g == nil || g.proc.Crashed() {
		return nil
	}
	g.sum.SelfChecks++
	th := g.proc.Thread()
	var issues []string

	// Tracked instances must be alive, and at most one in Shadow state.
	tokens := make([]int, 0, len(th.Activities()))
	for tok := range th.Activities() {
		tokens = append(tokens, tok)
	}
	sort.Ints(tokens)
	shadows := 0
	for _, tok := range tokens {
		inst := th.Activity(tok)
		if !inst.State().Alive() {
			issues = append(issues, fmt.Sprintf("token %d tracked in dead state %v", tok, inst.State()))
		}
		if inst.State() == app.StateShadow {
			shadows++
		}
	}
	if shadows > 1 {
		issues = append(issues, fmt.Sprintf("%d instances in Shadow state", shadows))
	}
	if sh := th.CurrentShadow(); sh != nil && sh.State() != app.StateShadow {
		issues = append(issues, fmt.Sprintf("currentShadow in state %v", sh.State()))
	}
	if sn := th.CurrentSunny(); sn != nil && !sn.State().Visible() {
		issues = append(issues, fmt.Sprintf("currentSunny in state %v", sn.State()))
	}

	// ATMS stack: at most one shadow-flagged record, each mapping to a
	// live shadow-or-stopped instance; the visible record's instance must
	// be alive.
	if g.sys != nil {
		if task := g.sys.Stack().TaskByName(g.proc.App().Name); task != nil {
			shadowRecs := 0
			for _, rec := range task.Records() {
				if !rec.Shadow() {
					continue
				}
				shadowRecs++
				inst := th.Activity(rec.Token)
				if inst == nil {
					issues = append(issues, fmt.Sprintf("shadow record token %d has no instance", rec.Token))
				} else if inst.State() != app.StateShadow && inst.State() != app.StateStopped {
					issues = append(issues, fmt.Sprintf("shadow record token %d maps to state %v", rec.Token, inst.State()))
				}
			}
			if shadowRecs > 1 {
				issues = append(issues, fmt.Sprintf("%d shadow-flagged records in task", shadowRecs))
			}
		}
	}

	if g.aux != nil {
		issues = append(issues, g.aux()...)
	}

	if len(issues) > 0 {
		g.sum.SelfCheckFailures++
		g.emit("selfCheckFail", class, strings.Join(issues, "; "),
			trace.Arg{Key: "issues", Val: len(issues)})
		g.Quarantine(class, "selfcheck:"+issues[0])
	} else {
		g.emit("selfCheck", class, "ok")
	}
	return issues
}

// SetReleaser installs the shadow-release hook (core package use). The
// hook returns false to defer the release to a later resume.
func (g *Guard) SetReleaser(fn func(class string) bool) {
	if g == nil {
		return
	}
	g.release = fn
}

// SetAuxCheck installs the extra self-check clauses (core package use).
func (g *Guard) SetAuxCheck(fn func() []string) {
	if g == nil {
		return
	}
	g.aux = fn
}

// Summary returns the supervision tally with each class's final ladder
// mode — the zero value for a nil guard.
func (g *Guard) Summary() Summary {
	if g == nil {
		return Summary{}
	}
	sum := g.sum
	sum.Modes = make(map[string]string, len(g.classes))
	for c, e := range g.classes {
		sum.Modes[c] = e.mode.String()
	}
	return sum
}

// Decisions returns the recorded supervision events (bounded).
func (g *Guard) Decisions() []Decision {
	if g == nil {
		return nil
	}
	out := make([]Decision, len(g.decisions))
	copy(out, g.decisions)
	return out
}

// Report renders the supervision summary: counters, then the per-class
// ladder in sorted order — deterministic byte-for-byte across runs.
func (g *Guard) Report() string {
	if g == nil {
		return "guard: disabled\n"
	}
	sum := &g.sum
	var b strings.Builder
	fmt.Fprintf(&b, "guard: %d ANRs (%d dispatch overruns), %d transfer retries, %d transfer failures\n",
		sum.ANRs, sum.DispatchOverruns, sum.Retries, sum.TransferFailures)
	fmt.Fprintf(&b, "guard: %d quarantines, %d recoveries, %d self-check failures (%d checks), breaker %s\n",
		sum.Quarantines, sum.Recoveries, sum.SelfCheckFailures, sum.SelfChecks, map[bool]string{true: "OPEN", false: "closed"}[sum.BreakerOpens > 0])
	names := make([]string, 0, len(g.classes))
	for c := range g.classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		e := g.classes[c]
		fmt.Fprintf(&b, "guard: %-24s %-11s", c, e.mode)
		if e.mode == ModeQuarantined {
			fmt.Fprintf(&b, " cause=%s since=%v probation=%d/%d",
				e.cause, time.Duration(e.quarantinedAt), e.cleanStock, g.cfg.ProbationK)
		}
		fmt.Fprintf(&b, " (quarantined %dx, recovered %dx)\n", e.quarantines, e.recoveries)
	}
	return b.String()
}
