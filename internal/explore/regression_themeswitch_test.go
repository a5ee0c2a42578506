package explore

import (
	"strings"
	"testing"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/chaos"
	"rchdroid/internal/core"
	"rchdroid/internal/guard"
	"rchdroid/internal/oracle"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/sweep"
)

// countingInstaller is sweep.RCHInstallerObs plus a handle on the installed
// RCHDroid, so tests can read the handler counters after a run.
func countingInstaller(rch **core.RCHDroid) oracle.Installer {
	return oracle.Installer{
		Name: "RCHDroid",
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) *guard.Guard {
			opts := core.DefaultOptions()
			opts.Chaos = plan
			*rch = core.Install(sys, proc, opts)
			return (*rch).Guard
		},
	}
}

// flipPinningAblatedInstaller is the default build with the
// flip-prediction pin off (core.Options.DisableFlipPinning) — the
// ablation that re-creates the theme-switch shadow-release race.
func flipPinningAblatedInstaller() oracle.Installer {
	return oracle.Installer{
		Name: "RCHDroid-nopin",
		Install: func(sys *atms.ATMS, proc *app.Process, plan *chaos.Plan) *guard.Guard {
			opts := core.DefaultOptions()
			opts.Chaos = plan
			opts.DisableFlipPinning = true
			return core.Install(sys, proc, opts).Guard
		},
	}
}

// raceSchedule is the depth-2 theme-switch schedule that first exposed
// the flip-pinning race: rotations injected at edges 3 and 5 land five
// configuration changes inside one launch window, so the activity's
// binder queue delivers them back-to-back. The first queued change
// predicts a flip of the live shadow partner; a later change taking the
// non-flip path used to release that partner at schedule time —
// destroying the instance the in-flight flip reply was about to promote.
// The flip fizzled, and the process ended with a single shadow-state
// instance no resume could ever reach.
const raceSchedule = "[e3:config e5:config]"

// TestThemeSwitchFlipPinningRace pins the schedule-space reproduction of
// the stranded-shadow race: the default build survives it by pinning the
// flip prediction's partner (ShadowHandler.flipPending), and the ablated
// build fails it with no foreground activity at the end of the scenario.
// No random seeds anywhere — the schedule index replays the interleaving
// exactly.
func TestThemeSwitchFlipPinningRace(t *testing.T) {
	sc, ok := corpus.ByName("theme-switch")
	if !ok {
		t.Fatal("theme-switch scenario missing from corpus")
	}
	sp := SpaceFor(&sc, 2)
	parsed, err := sp.ParseSchedule(raceSchedule)
	if err != nil {
		t.Fatalf("race schedule %s no longer parses: %v", raceSchedule, err)
	}
	idx, ok := sp.IndexOf(parsed)
	if !ok {
		t.Fatalf("race schedule %s fell out of the depth-2 space", raceSchedule)
	}

	// The empty schedule leaves the race window closed: the scenario's
	// scripted changes alone coalesce before the handler commits to a
	// flip against a doomed partner.
	var baseline *core.RCHDroid
	if v := RunSchedule(&sc, sp, 0, countingInstaller(&baseline), nil); !v.OK() {
		t.Fatalf("baseline theme-switch run failed:\n%s", v.String())
	}

	// The race index: the fixed build must survive it AND actually
	// execute the predicted flip (the pinned partner stays alive to be
	// promoted) — if the flip stops firing here, the schedule no longer
	// reaches the window this regression protects.
	var rch *core.RCHDroid
	v := RunSchedule(&sc, sp, idx, countingInstaller(&rch), nil)
	if !v.OK() {
		t.Fatalf("default build failed the race schedule %s (idx %d):\n%s", raceSchedule, idx, v.String())
	}
	if n := rch.Summary().Flips; n < 1 {
		t.Fatalf("race schedule %s (idx %d) ran no flips — the enumerator lost the flip-pinning window", raceSchedule, idx)
	}

	// The counterfactual: without the pin, the non-flip release destroys
	// the flip target and the run ends foregroundless.
	ablated := RunSchedule(&sc, sp, idx, flipPinningAblatedInstaller(), nil)
	if ablated.OK() {
		t.Fatalf("schedule %s passed without flip pinning — the ablation no longer reproduces the race, so the regression has lost its counterfactual", raceSchedule)
	}
	if s := ablated.String(); !strings.Contains(s, "no foreground activity") {
		t.Errorf("ablated schedule %s failed with an unexpected shape (want the stranded shadow's missing foreground):\n%s", raceSchedule, s)
	}

	// Rediscovery is deterministic: the same index replays byte-identically.
	again := RunSchedule(&sc, sp, idx, sweep.RCHInstallerObs(nil), nil)
	if v.String() != again.String() {
		t.Fatalf("race index %d not deterministic:\n%s\nvs\n%s", idx, v.String(), again.String())
	}
}

// TestThemeSwitchPendingShadowWindow pins the companion invariant
// refinement: schedule [e2:config e3:config] samples a step edge inside
// the window where the flip prediction's instance and the committed
// shadow coupling legitimately coexist (the server's reply is still in
// flight). CheckInvariants excuses the instance mirrored through
// ActivityThread.PendingShadow, and the window always closes — the
// strict one-shadow bound holds at the final quiescent check.
func TestThemeSwitchPendingShadowWindow(t *testing.T) {
	sc, ok := corpus.ByName("theme-switch")
	if !ok {
		t.Fatal("theme-switch scenario missing from corpus")
	}
	sp := SpaceFor(&sc, 2)
	parsed, err := sp.ParseSchedule("[e2:config e3:config]")
	if err != nil {
		t.Fatalf("window schedule no longer parses: %v", err)
	}
	idx, ok := sp.IndexOf(parsed)
	if !ok {
		t.Fatal("window schedule fell out of the depth-2 space")
	}
	if v := RunSchedule(&sc, sp, idx, sweep.RCHInstallerObs(nil), nil); !v.OK() {
		t.Fatalf("pending-shadow window schedule (idx %d) failed:\n%s", idx, v.String())
	}
}
