package core

import (
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/guard"
	"rchdroid/internal/sim"
)

// visibleActivities returns the visible instances the thread tracks, in
// no particular order.
func visibleActivities(t *app.ActivityThread) []*app.Activity {
	var out []*app.Activity
	for _, a := range t.Activities() {
		if a.State().Visible() {
			out = append(out, a)
		}
	}
	return out
}

// TestStaleStockRouteSupersededByRCHHandling reproduces the guarded-sweep
// seed 613 failure shape: a stock-routed relaunch is queued on the looper
// (issued while the class was quarantined), and before its phases run the
// guard recovers and a back-to-back change takes the RCHDroid path. The
// newer handling owns the screen, so the stale save/teardown/relaunch
// must fizzle — before the fix it ran anyway, resurrecting the old token
// next to the sunny instance the RCH handling launched: two visible
// activities system-wide.
func TestStaleStockRouteSupersededByRCHHandling(t *testing.T) {
	r := newRig(t, benchApp(4, 50*time.Millisecond), true)
	th := r.proc.Thread()
	h := r.rch.Handler
	fg := th.ForegroundActivity()
	if fg == nil {
		t.Fatal("no foreground activity after launch")
	}

	cfgA := r.sys.GlobalConfig().Rotated()
	cfgB := cfgA.WithFontScale(1.3)

	// Queue the stock route exactly as the quarantined path does: bump the
	// generation, capture it, post the phases. Nothing has executed yet.
	h.handlingGen++
	h.handleStockRouted(th, fg, cfgA, h.handlingGen)

	// The back-to-back change lands before any stock phase runs — the
	// moment the guard recovers, this takes the RCHDroid path and
	// supersedes the queued route.
	r.sys.PushConfiguration(cfgB)
	h.HandleRuntimeChange(th, fg, cfgB)
	r.sched.Advance(3 * time.Second)

	vis := visibleActivities(th)
	if len(vis) != 1 {
		for _, a := range vis {
			t.Logf("visible: token=%d state=%v cfg=%s", a.Token(), a.State(), a.Config())
		}
		t.Fatalf("%d visible activities after superseded stock route, want 1", len(vis))
	}
	if !vis[0].Config().Equal(cfgB) {
		t.Fatalf("foreground config = %s, want the newer change's %s", vis[0].Config(), cfgB)
	}
}

// TestBackToBackStockRoutesCoalesce pins the same supersession rule
// between two stock routes: when a second change arrives while the first
// quarantined relaunch is still queued, the first must fizzle and the
// second's configuration wins — mirroring how ActivityThread coalesces
// pending relaunches. Before the fix the first route tore down and
// relaunched the token, and the second aborted against the destroyed
// instance, leaving the foreground on the stale configuration.
func TestBackToBackStockRoutesCoalesce(t *testing.T) {
	r := newRigGuarded(t)
	th := r.proc.Thread()
	fg := th.ForegroundActivity()
	if fg == nil {
		t.Fatal("no foreground activity after launch")
	}
	r.rch.Guard.Quarantine("MainActivity", "test:forced")

	cfgA := r.sys.GlobalConfig().Rotated()
	cfgB := cfgA.WithFontScale(1.3)
	h := r.rch.Handler
	h.HandleRuntimeChange(th, fg, cfgA)
	h.HandleRuntimeChange(th, fg, cfgB)
	r.sched.Advance(3 * time.Second)

	if got := r.rch.Summary().StockRouted; got != 2 {
		t.Fatalf("stock-routed count = %d, want 2", got)
	}
	vis := visibleActivities(th)
	if len(vis) != 1 {
		t.Fatalf("%d visible activities after coalesced stock routes, want 1", len(vis))
	}
	if !vis[0].Config().Equal(cfgB) {
		t.Fatalf("foreground config = %s, want the last change's %s", vis[0].Config(), cfgB)
	}
}

// newRigGuarded is newRig with the supervision layer armed.
func newRigGuarded(t *testing.T) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	model := costmodel.Default()
	sys := atms.New(sched, model)
	proc := app.NewProcess(sched, model, benchApp(4, 50*time.Millisecond))
	opts := DefaultOptions()
	gcfg := guard.DefaultConfig()
	opts.Guard = &gcfg
	r := &rig{sched: sched, model: model, sys: sys, proc: proc}
	r.rch = Install(sys, proc, opts)
	sys.LaunchApp(proc)
	sched.Advance(2 * time.Second)
	return r
}
