package core

import "rchdroid/internal/obs"

// handlerObs caches the shadow handler's metric handles so the hot path
// pays one nil-check plus one atomic op per observation. Every value
// recorded here derives from the seed alone (event counts and sim-clock
// phase durations), so the metrics live in the canonical sim domain.
// The zero value (nil handles) no-ops everywhere — observation off.
type handlerObs struct {
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

// newHandlerObs resolves the handles once at install time. A nil shard
// yields nil handles (obs is nil-safe), so the disabled path costs one
// branch per call site — same contract as the nil guard.
func newHandlerObs(sh *obs.Shard) handlerObs {
	return handlerObs{
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
