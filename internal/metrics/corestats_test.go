package metrics_test

import (
	"strings"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/chaos"
	"rchdroid/internal/core"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/explore"
	"rchdroid/internal/guard"
	"rchdroid/internal/metrics"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/sim"
	"rchdroid/internal/trace"
)

// TestAnalyzeTraceCoreCounters is the core twin of
// TestAnalyzeTraceGuardCounters: on one traced, observed RCHDroid run
// with no transfer failures, the decision counts read off the trace
// equal the core.Summary tally and its obs counters, and every phase
// histogram carries exactly the count and sum of its rch:* spans.
func TestAnalyzeTraceCoreCounters(t *testing.T) {
	sched := sim.NewScheduler()
	model := costmodel.Default()
	tracer := trace.New(sched)
	sys := atms.New(sched, model)
	sys.SetTracer(tracer)
	proc := app.NewProcess(sched, model, benchapp.New(benchapp.Config{
		Images:    4,
		TaskDelay: 300 * time.Millisecond,
	}))
	proc.SetTracer(tracer)
	reg := obs.NewRegistry()
	opts := core.DefaultOptions()
	opts.Obs = reg.Shard()
	rch := core.Install(sys, proc, opts)
	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)

	rotate := func() {
		sys.PushConfiguration(sys.GlobalConfig().Rotated())
		sched.Advance(2 * time.Second)
	}
	// An async task in flight across the first change (RCHDroid-init)
	// returns onto the shadow tree: one lazy-migration batch.
	benchapp.TouchButton(proc)
	sched.Advance(50 * time.Millisecond)
	rotate()
	rotate() // coin flip
	rotate() // coin flip
	// Idle past THRESH_T: the cold shadow is collected, so the next
	// change pays the init path again.
	sched.Advance(70 * time.Second)
	rotate()

	st := metrics.AnalyzeTrace(tracer.Events())
	sum := rch.Summary()
	if sum.CoinFlips == 0 || sum.CoinCreates < 2 || sum.GCCollects == 0 || len(sum.MigrationTimes) == 0 {
		t.Fatalf("run misses a decision kind: %+v", sum)
	}
	for _, c := range []struct {
		what         string
		trace, tally int
	}{
		{"coin flips", st.CoinFlips, sum.CoinFlips},
		{"coin creates", st.CoinCreates, sum.CoinCreates},
		{"coin cancels", st.CoinCancels, sum.CoinCancels},
		{"GC collects", st.GCCollects, sum.GCCollects},
		{"migration batches", st.Migrations, len(sum.MigrationTimes)},
	} {
		if c.trace != c.tally {
			t.Errorf("%s: trace counts %d, core tally %d", c.what, c.trace, c.tally)
		}
	}
	for _, c := range []struct {
		counter string
		tally   int
	}{
		{"core_handlings_total", sum.Handlings},
		{"core_flips_total", sum.CoinFlips},
		{"core_init_launches_total", sum.CoinCreates},
		{"core_flips_total", sum.Flips},
		{"core_init_launches_total", sum.InitLaunches},
	} {
		if got := reg.CounterValue(c.counter); got != int64(c.tally) {
			t.Errorf("%s = %d, core tally %d", c.counter, got, c.tally)
		}
	}

	spans := make(map[string]metrics.PhaseStats)
	for _, p := range st.Phases {
		spans[p.Name] = p
	}
	hists := make(map[string]*obs.Hist)
	for _, m := range reg.Snapshot().Metrics {
		hists[m.Name] = m.Hist
	}
	for _, c := range []struct {
		hist  string
		spans []string
	}{
		{"core_phase_enter_shadow_sim_ns", []string{"rch:enterShadow", "rch:enterShadow(flip)"}},
		{"core_phase_build_mapping_sim_ns", []string{"rch:buildMapping"}},
		{"core_phase_flip_sim_ns", []string{"rch:flip"}},
		{"core_phase_flip_resume_sim_ns", []string{"rch:flipResume"}},
	} {
		var count int
		var total time.Duration
		for _, name := range c.spans {
			count += spans[name].Count
			total += spans[name].Total
		}
		h := hists[c.hist]
		if h == nil || h.Count == 0 {
			t.Fatalf("%s: no observations", c.hist)
		}
		if h.Count != int64(count) || time.Duration(h.Sum) != total {
			t.Errorf("%s: count %d sum %v, spans %v: count %d total %v",
				c.hist, h.Count, time.Duration(h.Sum), c.spans, count, total)
		}
	}
}

// TestAnalyzeTraceCountsCoinCancels drives the backstack scenario's
// [e0:config e1:config] schedule — a change lands while Compose is
// being started over Inbox, so the server cancels the covered
// requester's sunny start — and requires the trace summary to count
// that cancel as a cancel, not as a create.
func TestAnalyzeTraceCountsCoinCancels(t *testing.T) {
	sc := corpus.BackStack()
	sp := explore.SpaceFor(&sc, 2)
	sched, err := sp.ParseSchedule("[e0:config e1:config]")
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := sp.IndexOf(sched)
	if !ok {
		t.Fatalf("%s fell out of the depth-2 space", sched)
	}
	var tracer *trace.Tracer
	var rch *core.RCHDroid
	inst := oracle.Installer{
		Name: "RCHDroid",
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) *guard.Guard {
			tracer = trace.New(proc.Scheduler())
			sys.SetTracer(tracer)
			proc.SetTracer(tracer)
			opts := core.DefaultOptions()
			opts.Chaos = plan
			rch = core.Install(sys, proc, opts)
			return nil
		},
	}
	if v := explore.RunSchedule(&sc, sp, idx, inst, nil); !v.OK() {
		t.Fatalf("schedule %s failed:\n%s", sched, v.String())
	}

	st := metrics.AnalyzeTrace(tracer.Events())
	sum := rch.Summary()
	if sum.CoinCancels == 0 {
		t.Fatalf("schedule %s no longer reaches the coin-flip cancel: %+v", sched, sum)
	}
	if st.CoinFlips != sum.CoinFlips || st.CoinCreates != sum.CoinCreates || st.CoinCancels != sum.CoinCancels {
		t.Fatalf("trace counts %d flip / %d create / %d cancel, policy %d / %d / %d",
			st.CoinFlips, st.CoinCreates, st.CoinCancels, sum.CoinFlips, sum.CoinCreates, sum.CoinCancels)
	}
	want := "coin flips: 1 flip / 1 create / 1 cancel\n"
	if r := st.Render(0); !strings.Contains(r, want) {
		t.Fatalf("rendered summary misses %q:\n%s", want, r)
	}
}
