package experiments

import (
	"fmt"
	"time"

	"rchdroid/internal/benchapp"
)

// Fig10Row is one point of the view-count sweep.
type Fig10Row struct {
	Views int
	// StockMS is Android-10's restart handling time.
	StockMS float64
	// InitMS is RCHDroid's first-change handling time.
	InitMS float64
	// FlipMS is RCHDroid's steady-state handling time.
	FlipMS float64
	// MigrateMS is the asynchronous view-tree migration time (Fig 10b).
	MigrateMS float64
}

// Fig10Result is the scalability sweep of Fig 10 (a: handling time,
// b: async view-tree migration time) over benchmark apps with 2^0..2^4
// ImageViews.
type Fig10Result struct {
	Sweep []Fig10Row
}

// Fig10 runs the sweep. For each view count: measure a stock restart;
// then on a fresh RCHDroid rig measure the init change and a flip; then
// touch the button, rotate while the task is in flight and record the
// lazy-migration batch time.
func Fig10() *Fig10Result {
	res := &Fig10Result{}
	for _, n := range []int{1, 2, 4, 8, 16} {
		row := Fig10Row{Views: n}
		mk := func() *benchapp.Config {
			return &benchapp.Config{Images: n, TaskDelay: 300 * time.Millisecond}
		}

		stock := NewRig(benchapp.New(*mk()), ModeStock)
		if d, err := stock.Rotate(); err == nil {
			row.StockMS = ms(d)
		}

		rch := NewRig(benchapp.New(*mk()), ModeRCHDroid)
		if d, err := rch.Rotate(); err == nil {
			row.InitMS = ms(d)
		}
		if d, err := rch.Rotate(); err == nil {
			row.FlipMS = ms(d)
		}
		// Async migration: task in flight across a change; every
		// ImageView update is caught by the invalidate hook and flushed
		// as one batch.
		benchapp.TouchButton(rch.Proc)
		rch.Sched.Advance(50 * time.Millisecond)
		if _, err := rch.Rotate(); err == nil {
			rch.Sched.Advance(2 * time.Second)
			times := rch.RCH.Summary().MigrationTimes
			if len(times) > 0 {
				row.MigrateMS = ms(times[len(times)-1])
			}
		}
		res.Sweep = append(res.Sweep, row)
	}
	return res
}

// Title implements Result.
func (r *Fig10Result) Title() string {
	return "Figure 10 — scalability over view count (a: handling time, b: async migration)"
}

// Header implements Result.
func (r *Fig10Result) Header() []string {
	return []string{"views", "Android-10 (ms)", "RCHDroid-init (ms)", "RCHDroid (ms)", "async migration (ms)"}
}

// Rows implements Result.
func (r *Fig10Result) Rows() [][]string {
	out := make([][]string, len(r.Sweep))
	for i, row := range r.Sweep {
		out[i] = []string{
			fmt.Sprintf("%d", row.Views),
			fmt.Sprintf("%.1f", row.StockMS),
			fmt.Sprintf("%.1f", row.InitMS),
			fmt.Sprintf("%.1f", row.FlipMS),
			fmt.Sprintf("%.2f", row.MigrateMS),
		}
	}
	return out
}

// Summary implements Result.
func (r *Fig10Result) Summary() string {
	first, last := r.Sweep[0], r.Sweep[len(r.Sweep)-1]
	return fmt.Sprintf(
		"RCHDroid stays flat (%.1f → %.1f ms) below Android-10 (%.1f → %.1f ms); "+
			"RCHDroid-init grows %.1f → %.1f ms (O(n) mapping); async migration grows linearly %.2f → %.2f ms",
		first.FlipMS, last.FlipMS, first.StockMS, last.StockMS,
		first.InitMS, last.InitMS, first.MigrateMS, last.MigrateMS)
}
