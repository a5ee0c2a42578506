package core

import (
	"fmt"
	"slices"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/chaos"
	"rchdroid/internal/guard"
	"rchdroid/internal/obs"
	"rchdroid/internal/trace"
	"rchdroid/internal/view"
)

// Options configure an RCHDroid installation.
type Options struct {
	// GC holds the threshold-GC parameters; DefaultGCConfig gives the
	// paper's values (THRESH_T = 50 s, THRESH_F = 4/min).
	GC GCConfig
	// DisableGC keeps every shadow activity alive forever (an ablation
	// configuration; it maximises flip hits at maximal memory cost).
	DisableGC bool
	// QuadraticMapping swaps the O(n) essence-mapping hash table for the
	// naive O(n²) tree matcher (ablation for the §3.3 design choice).
	QuadraticMapping bool
	// DisableCoinFlip always creates a fresh sunny instance instead of
	// reusing the shadow one (ablation for §3.4; every change becomes
	// RCHDroid-init).
	DisableCoinFlip bool
	// EagerMigration migrates the whole mapped tree after every
	// asynchronous callback instead of only the dirtied views (ablation
	// for the §3.3 lazy scheme).
	EagerMigration bool
	// DisableSupersession lets a queued stock-routed relaunch run even
	// after a newer handling was scheduled (ablation for the
	// handling-generation guard). It re-creates the quarantine-recovery
	// race guarded seed 613 first exposed — a stale stock relaunch
	// resurrecting its token as a second visible activity — so the
	// schedule-space explorer can prove it rediscovers the bug without
	// RNG.
	DisableSupersession bool
	// DisableFlipPinning lets a non-flip handling release the shadow
	// partner even while an earlier queued flip-likely handling has
	// committed to bringing it back (ablation for the flip-prediction
	// pin). It re-creates the theme-switch race the schedule-space
	// explorer exposed at [e3:config e5:config]: the release destroys the
	// flip reply's target, the flip fizzles, and the process is left with
	// a shadow-only thread no resume can ever reach.
	DisableFlipPinning bool
	// Chaos, if non-nil, arms the core-side fault hooks from the plan:
	// phase stalls on the shadow handler, flush deferral on the migrator
	// and corruption/drop on the snapshot transfer. The app/system-side
	// hooks (looper, async, config echo) are armed separately via
	// chaos.Plan.Install.
	Chaos *chaos.Plan
	// Guard, if non-nil, arms the supervision layer: ANR-style watchdogs
	// around the handling phases, checksummed snapshot transfer with
	// retry, post-flip self-checks, and the per-activity degradation
	// ladder that falls back to the stock restart path.
	Guard *guard.Config
	// Obs, if non-nil, records hot-path metrics (handling counters,
	// per-phase sim-clock duration histograms, guard decision rates)
	// into the shard. Observations never advance the sim clock, so an
	// instrumented run stays tick-identical to an unobserved one.
	Obs *obs.Shard
}

// DefaultOptions returns the configuration the paper evaluates.
func DefaultOptions() Options {
	return Options{GC: DefaultGCConfig()}
}

// RCHDroid bundles the installed components for one process; Summary
// gives experiments the decision tally.
type RCHDroid struct {
	Handler *ShadowHandler
	GC      *ThresholdGC
	Policy  *CoinFlipPolicy
	Guard   *guard.Guard
	// PolicyMismatch is non-empty when Install found a foreign starter
	// policy already in place and refused to run the coin flip. The
	// condition is also logged, traced, and surfaced through the guard
	// self-check, so it can never silently disable the flip.
	PolicyMismatch string

	tally *tally
}

// Install wires RCHDroid onto a process and its system server:
// the shadow-state change handler on the activity thread, the coin-flip
// policy on the ATMS starter (shared; installing twice reuses it), the
// essence-mapping migrator on the view layer, and the threshold GC.
func Install(sys *atms.ATMS, proc *app.Process, opts Options) *RCHDroid {
	tl := newTally(opts.Obs)
	migrator := &Migrator{thread: proc.Thread(), tally: tl, inSet: make(map[view.View]bool), eager: opts.EagerMigration}
	var gc *ThresholdGC
	if !opts.DisableGC {
		gc = newThresholdGC(opts.GC, migrator, tl)
	}
	handler := &ShadowHandler{migrator: migrator, gc: gc, tally: tl}
	handler.quadraticMapping = opts.QuadraticMapping
	handler.disableSupersession = opts.DisableSupersession
	handler.disableFlipPinning = opts.DisableFlipPinning
	var g *guard.Guard
	if opts.Guard != nil {
		g = guard.New(*opts.Guard, proc.Scheduler(), proc, sys)
		g.SetObs(opts.Obs)
		handler.guard = g
	}
	// policyMismatch is filled by the starter-policy wiring below; the
	// guard's aux self-check closure captures it so a mismatched install
	// keeps failing self-checks instead of degrading silently.
	var policyMismatch string
	if opts.Chaos != nil {
		handler.SetPhaseStall(opts.Chaos.OnCorePhase)
		handler.xfer = opts.Chaos.OnStateTransfer
		if g != nil {
			// Wrap the flush fault so the guard sees deferrals: the first
			// deferral arms the migrationFlush watchdog and the consult
			// that finally lets the flush through disarms it. A deferral
			// chain that never completes within the deadline is exactly
			// the hang the watchdog is for.
			var flushClass string
			migrator.SetFlushFault(func(pending int) time.Duration {
				d := opts.Chaos.OnMigrationFlush(pending)
				if d > 0 {
					if sh := proc.Thread().CurrentShadow(); sh != nil {
						flushClass = sh.Class().Name
						g.ArmPhase(flushClass, "migrationFlush")
					}
				} else if flushClass != "" {
					g.DisarmPhase(flushClass, "migrationFlush")
					flushClass = ""
				}
				return d
			})
		} else {
			migrator.SetFlushFault(opts.Chaos.OnMigrationFlush)
		}
	}
	proc.Thread().SetChangeHandler(handler)

	if g != nil {
		g.SetReleaser(func(class string) bool {
			t := proc.Thread()
			if handler.changesInFlight > 0 {
				// A handling is mid-flight (enter-shadow done, flip or
				// launch still queued); releasing now would destroy the
				// instance it is about to foreground. Retry at the next
				// resume — the settling point always produces one.
				return false
			}
			if p := handler.pendingShadow; p != nil && p.Class().Name == class {
				handler.pendingShadow = nil
			}
			if sh := t.CurrentShadow(); sh != nil && sh.Class().Name == class {
				handler.releaseShadow(t, sh)
			}
			return true
		})
		g.SetAuxCheck(func() []string {
			var issues []string
			if policyMismatch != "" {
				issues = append(issues, policyMismatch)
			}
			if !migrator.FlushDeferred() && migrator.PendingCount() > 0 {
				issues = append(issues, fmt.Sprintf("migrator: %d unflushed dirty shadow views", migrator.PendingCount()))
			}
			// Every mapped essence pair must point at a live peer with a
			// matching ID; views without an ID are legitimately unmapped.
			if sh := proc.Thread().CurrentShadow(); sh != nil && sh.State() == app.StateShadow {
				view.Walk(sh.Decor(), func(v view.View) bool {
					peer := v.Base().SunnyPeer()
					if peer == nil {
						return true
					}
					if peer.Base().Released() {
						issues = append(issues, fmt.Sprintf("essence map: view %d's sunny peer is released", int(v.Base().ID())))
					} else if peer.Base().ID() != v.Base().ID() {
						issues = append(issues, fmt.Sprintf("essence map: view %d mapped to peer %d", int(v.Base().ID()), int(peer.Base().ID())))
					}
					return true
				})
			}
			return issues
		})
		proc.UILooper().SetDispatchObserver(g.OnDispatch)
		sys.AddHandlingObserver(func(class string, token int) {
			// Observers fire for every process on the server; arm only
			// for tokens this process owns.
			if proc.Thread().Activity(token) != nil {
				g.ArmPhase(class, "handling")
			}
		})
		sys.AddResumeObserver(g.OnResumed)
	}

	var policy *CoinFlipPolicy
	if opts.DisableCoinFlip {
		sys.Starter().SetPolicy(alwaysCreatePolicy{})
	} else {
		switch p := sys.Starter().Policy().(type) {
		case nil:
			policy = &CoinFlipPolicy{}
			sys.Starter().SetPolicy(policy)
		case *CoinFlipPolicy:
			// Shared server: a second install on the same system reuses
			// the policy already wired into the starter.
			policy = p
		default:
			// A foreign policy is already installed (e.g. an ablation stub
			// left over from a previous install). Clobbering it would skew
			// whatever configured it, and running without the coin flip
			// must not be silent: log it, drop a trace instant, and let
			// the guard self-check keep flagging the install.
			policyMismatch = fmt.Sprintf("starter policy is %T, want *core.CoinFlipPolicy; coin flip disabled", p)
			if lc := sys.Logcat(); lc != nil {
				lc.W("RCHDroid", "%s", policyMismatch)
			}
			sys.Tracer().Instant(sys.Track(), "rch:policyMismatch", "rch",
				trace.Arg{Key: "policy", Val: fmt.Sprintf("%T", p)})
		}
	}
	return &RCHDroid{Handler: handler, GC: gc, Policy: policy, Guard: g,
		PolicyMismatch: policyMismatch, tally: tl}
}

// Summary returns the decision tally: this process's handler, GC and
// migration counts plus the shared coin-flip policy's.
func (r *RCHDroid) Summary() Summary {
	sum := r.tally.sum
	sum.MigrationTimes = slices.Clone(sum.MigrationTimes)
	if p := r.Policy; p != nil {
		sum.CoinSearches, sum.CoinFlips, sum.CoinCreates, sum.CoinCancels =
			p.sum.CoinSearches, p.sum.CoinFlips, p.sum.CoinCreates, p.sum.CoinCancels
	}
	return sum
}
