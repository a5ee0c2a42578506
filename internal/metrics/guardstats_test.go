package metrics_test

import (
	"bytes"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/guard"
	"rchdroid/internal/metrics"
	"rchdroid/internal/obs"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// guardedOut is what one guarded run feeds: the tracer, every rendered
// report (the trace summary, the ATMS stack dump and the guard's own
// report), the guard's tally and the metrics registry its decisions
// were mirrored into.
type guardedOut struct {
	tracer                 *trace.Tracer
	rendered, dump, report string
	sum                    guard.Summary
	reg                    *obs.Registry
}

// guardedRun drives a traced, guarded chaos scenario with an obs shard
// wired into core and the guard.
func guardedRun(t *testing.T) guardedOut {
	t.Helper()
	sched := sim.NewScheduler()
	model := costmodel.Default()
	tracer := trace.New(sched)
	sys := atms.New(sched, model)
	sys.SetTracer(tracer)
	proc := app.NewProcess(sched, model, benchapp.New(benchapp.Config{
		Images:    2,
		TaskDelay: 100 * time.Millisecond,
	}))
	proc.SetTracer(tracer)
	plan := chaos.NewPlan(77, chaos.Guarded())
	plan.BindClock(sched)
	plan.SetTracer(tracer)
	opts := core.DefaultOptions()
	opts.Chaos = plan
	cfg := guard.DefaultConfig()
	opts.Guard = &cfg
	reg := obs.NewRegistry()
	opts.Obs = reg.Shard()
	rch := core.Install(sys, proc, opts)
	plan.Install(sys, proc)
	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)
	c := config.Default()
	for i := 0; i < 6; i++ {
		c = c.Rotated()
		sys.PushConfiguration(c)
		sched.Advance(3 * time.Second)
	}
	st := metrics.AnalyzeTrace(tracer.Events())
	return guardedOut{
		tracer:   tracer,
		rendered: st.Render(0),
		dump:     sys.DumpStack(),
		report:   rch.Guard.Report(),
		sum:      rch.Guard.Summary(),
		reg:      reg,
	}
}

// TestAnalyzeTraceGuardCounters checks the guard section of the trace
// summary: watchdog margins for the phases a healthy handling disarms,
// and counters consistent between the in-memory trace, the guard's
// tally and its guard_<kind>_total metrics.
func TestAnalyzeTraceGuardCounters(t *testing.T) {
	out := guardedRun(t)
	st := metrics.AnalyzeTrace(out.tracer.Events())

	if len(st.GuardMargins) == 0 {
		t.Fatal("no guard deadline margins collected")
	}
	for phase, margins := range st.GuardMargins {
		for _, m := range margins {
			if m <= 0 {
				t.Fatalf("phase %s recorded non-positive margin %v", phase, m)
			}
		}
	}
	total := st.GuardANRs + st.GuardRetries + st.GuardQuarantines +
		st.GuardRecoveries + st.GuardStockRoutes
	if total == 0 {
		t.Fatal("Guarded preset produced no guard activity in the trace")
	}
	for _, c := range []struct {
		counter      string
		trace, tally int
	}{
		{"guard_anr_total", st.GuardANRs, out.sum.ANRs},
		{"guard_retry_total", st.GuardRetries, out.sum.Retries},
		{"guard_quarantine_total", st.GuardQuarantines, out.sum.Quarantines},
		{"guard_recover_total", st.GuardRecoveries, out.sum.Recoveries},
		{"guard_breaker_open_total", st.GuardBreakerOpens, out.sum.BreakerOpens},
		{"guard_self_check_fail_total", st.GuardSelfCheckFails, out.sum.SelfCheckFailures},
	} {
		if c.trace != c.tally {
			t.Errorf("%s: trace counts %d, guard tally %d", c.counter, c.trace, c.tally)
		}
		if got := out.reg.CounterValue(c.counter); got != int64(c.tally) {
			t.Errorf("%s = %d, guard tally %d", c.counter, got, c.tally)
		}
	}
	if !bytes.Contains([]byte(out.rendered), []byte("guard:")) {
		t.Fatalf("rendered summary misses the guard section:\n%s", out.rendered)
	}
	if !bytes.Contains([]byte(out.rendered), []byte("guard deadline margin")) {
		t.Fatalf("rendered summary misses the margin table:\n%s", out.rendered)
	}
	if out.report == "guard: disabled\n" {
		t.Fatal("guard report claims disabled")
	}
}

// TestGuardStatsSurviveJSONRoundTrip re-reads the exported trace (where
// durations become formatted strings) and requires the same guard
// counters and margins — the path rchtrace takes.
func TestGuardStatsSurviveJSONRoundTrip(t *testing.T) {
	tracer := guardedRun(t).tracer
	direct := metrics.AnalyzeTrace(tracer.Events())

	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	evs, _, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	reread := metrics.AnalyzeTrace(evs)

	if direct.GuardANRs != reread.GuardANRs ||
		direct.GuardRetries != reread.GuardRetries ||
		direct.GuardQuarantines != reread.GuardQuarantines ||
		direct.GuardRecoveries != reread.GuardRecoveries ||
		direct.GuardBreakerOpens != reread.GuardBreakerOpens ||
		direct.GuardStockRoutes != reread.GuardStockRoutes ||
		direct.GuardSelfCheckFails != reread.GuardSelfCheckFails {
		t.Fatalf("guard counters changed across JSON round trip:\ndirect %+v\nreread %+v", direct, reread)
	}
	if len(direct.GuardMargins) != len(reread.GuardMargins) {
		t.Fatalf("margin phases changed: %d vs %d", len(direct.GuardMargins), len(reread.GuardMargins))
	}
	for phase, ms := range direct.GuardMargins {
		if len(reread.GuardMargins[phase]) != len(ms) {
			t.Fatalf("phase %s margins: %d vs %d", phase, len(ms), len(reread.GuardMargins[phase]))
		}
	}
}

// TestReportsByteIdenticalAcrossRuns re-runs the identical guarded
// scenario and compares every rendered report byte for byte — the
// export-determinism contract for the summaries the CLI prints.
func TestReportsByteIdenticalAcrossRuns(t *testing.T) {
	a, b := guardedRun(t), guardedRun(t)
	if a.rendered != b.rendered {
		t.Fatalf("trace summaries differ between identical runs:\n%s----\n%s", a.rendered, b.rendered)
	}
	if a.dump != b.dump {
		t.Fatalf("stack dumps differ between identical runs:\n%s----\n%s", a.dump, b.dump)
	}
	if a.report != b.report {
		t.Fatalf("guard reports differ between identical runs:\n%s----\n%s", a.report, b.report)
	}
}
