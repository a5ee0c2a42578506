package core

import (
	"time"

	"rchdroid/internal/obs"
)

// Summary is the one tally of an RCHDroid installation's decisions —
// plain data, the core twin of guard.Summary. Each field is bumped at
// exactly one emit site, which also feeds the decision's obs counter
// and trace instant, if it has them.
type Summary struct {
	// Shadow handler (this process): every change handled, split into
	// RCHDroid-init launches, coin flips and guard stock routes;
	// SupersededStockRoutes counts queued stock relaunches that fizzled
	// because a newer handling was scheduled first, ZombiesReaped
	// demoted shadows destroyed once their async work drained.
	Handlings, InitLaunches, Flips, ZombiesReaped int
	StockRouted, SupersededStockRoutes            int

	// Coin-flip policy (ATMS side, §3.4): stack searches and their
	// outcomes. The policy is shared by every installation on one
	// system server, so these count server-wide; zero without it.
	CoinSearches, CoinFlips, CoinCreates, CoinCancels int

	// Threshold GC (Algorithm 1): passes run and shadows reclaimed.
	GCSweeps, GCCollects int

	// Lazy migration (§3.3): the charged duration of each batch (Fig
	// 10b; its length is the batch count) and the views migrated. A
	// batch is counted when its rch:lazyMigrate phase runs; its
	// rch:migrateFlush instant marks the flush decision just before.
	MigrationTimes []time.Duration
	ViewsMigrated  int
}

// tally counts one installation's per-process decisions. Each method is
// the single emit site of its decision kind: it bumps the Summary field
// and the obs counter mirroring it. Every value derives from the seed
// alone (event counts and sim-clock phase durations), so the metrics
// live in the canonical sim domain. Nil handles (no shard) no-op.
type tally struct {
	sum Summary

	handlings    *obs.Counter
	flips        *obs.Counter
	initLaunches *obs.Counter
	stockRouted  *obs.Counter
	superseded   *obs.Counter
	zombieReaps  *obs.Counter

	phaseEnterShadow *obs.Histogram
	phaseBuildMap    *obs.Histogram
	phaseFlip        *obs.Histogram
	phaseFlipResume  *obs.Histogram
}

// newTally resolves the obs handles once at install time. A nil shard
// yields nil handles (obs is nil-safe), so the disabled path costs one
// branch per call site — same contract as the nil guard.
func newTally(sh *obs.Shard) *tally {
	return &tally{
		handlings:    sh.Counter("core_handlings_total", "runtime changes entering the shadow handler", obs.Sim),
		flips:        sh.Counter("core_flips_total", "coin-flip handlings (shadow instance reused)", obs.Sim),
		initLaunches: sh.Counter("core_init_launches_total", "RCHDroid-init handlings (fresh sunny instance)", obs.Sim),
		stockRouted:  sh.Counter("core_stock_routes_total", "changes the guard routed through the stock restart path", obs.Sim),
		superseded:   sh.Counter("core_superseded_stock_routes_total", "stale stock-routed relaunches fizzled by a newer handling generation", obs.Sim),
		zombieReaps:  sh.Counter("core_zombies_reaped_total", "demoted shadows destroyed after their async work drained", obs.Sim),

		phaseEnterShadow: sh.Histogram("core_phase_enter_shadow_sim_ns", "enter-shadow phase sim-clock occupancy", obs.Sim, obs.SimDurationBounds),
		phaseBuildMap:    sh.Histogram("core_phase_build_mapping_sim_ns", "essence-mapping build sim-clock occupancy", obs.Sim, obs.SimDurationBounds),
		phaseFlip:        sh.Histogram("core_phase_flip_sim_ns", "flip phase sim-clock occupancy", obs.Sim, obs.SimDurationBounds),
		phaseFlipResume:  sh.Histogram("core_phase_flip_resume_sim_ns", "flip-resume phase sim-clock occupancy", obs.Sim, obs.SimDurationBounds),
	}
}

func (t *tally) handling()        { t.sum.Handlings++; t.handlings.Inc() }
func (t *tally) initLaunch()      { t.sum.InitLaunches++; t.initLaunches.Inc() }
func (t *tally) flip()            { t.sum.Flips++; t.flips.Inc() }
func (t *tally) stockRoute()      { t.sum.StockRouted++; t.stockRouted.Inc() }
func (t *tally) supersededRoute() { t.sum.SupersededStockRoutes++; t.superseded.Inc() }
func (t *tally) zombieReap()      { t.sum.ZombiesReaped++; t.zombieReaps.Inc() }
func (t *tally) gcSweep()         { t.sum.GCSweeps++ }
func (t *tally) gcCollect()       { t.sum.GCCollects++ }

// migrated records one flushed lazy-migration batch.
func (t *tally) migrated(views int, cost time.Duration) {
	t.sum.ViewsMigrated += views
	t.sum.MigrationTimes = append(t.sum.MigrationTimes, cost)
}
