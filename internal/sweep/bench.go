package sweep

import (
	"fmt"
	"runtime"
	"sort"

	"rchdroid/internal/metrics"
	"rchdroid/internal/obs"
)

// Measurement is one point on a mode's scaling curve: the same seed
// range swept at one worker count. GOMAXPROCS is recorded per
// measurement (not once per file) so a curve collected across
// differently-provisioned machines cannot silently mislabel points.
type Measurement struct {
	Workers     int                   `json:"workers"`
	GOMAXPROCS  int                   `json:"gomaxprocs"`
	Seconds     float64               `json:"seconds"`
	SeedsPerSec float64               `json:"seeds_per_sec"`
	Speedup     float64               `json:"speedup"`
	PerSeed     metrics.DurationStats `json:"per_seed"`
	// ReportIdentical asserts the determinism contract held for this
	// very point: the merged report matched the workers=1 baseline
	// byte for byte.
	ReportIdentical bool `json:"report_identical"`
	// MetricsIdentical asserts the canonical (sim-domain) metrics dump
	// matched the workers=1 baseline byte for byte.
	MetricsIdentical bool `json:"metrics_identical"`
	Failures         int  `json:"failures"`
}

// Bench is one mode's scaling curve — the unit of the BENCH_sweep.json
// trajectory. Curve[0] is always the workers=1 baseline.
type Bench struct {
	Mode        string        `json:"mode"`
	Seeds       int           `json:"seeds"`
	Curve       []Measurement `json:"curve"`
	BestWorkers int           `json:"best_workers"`
	BestSpeedup float64       `json:"best_speedup"`
}

// BenchFile is the on-disk shape of BENCH_sweep.json.
type BenchFile struct {
	Generated string  `json:"generated"`
	Benches   []Bench `json:"benches"`
}

// normalizeWorkerCounts resolves ≤0 entries to GOMAXPROCS, dedups, and
// sorts ascending with 1 forced in as the baseline.
func normalizeWorkerCounts(counts []int) []int {
	seen := map[int]bool{1: true}
	out := []int{1}
	for _, w := range counts {
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// RunBench sweeps one mode's seed range once per worker count and
// byte-compares every point's merged report and canonical metrics dump
// against the workers=1 baseline. A nil or empty workerCounts measures
// {1, GOMAXPROCS}. One runner, and so one template cache, serves the
// whole curve: the workers=1 baseline pays the template builds and every
// other point forks from them — exactly how a long sweep amortizes
// construction.
func RunBench(mode string, seeds int, workerCounts []int) (Bench, error) {
	fn, replay, err := ForMode(mode)
	if err != nil {
		return Bench{}, err
	}
	if seeds <= 0 {
		return Bench{}, fmt.Errorf("bench needs a positive seed count, got %d", seeds)
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{runtime.GOMAXPROCS(0)}
	}
	counts := normalizeWorkerCounts(workerCounts)

	b := Bench{Mode: mode, Seeds: seeds}
	var baseReport, baseFailures string
	var baseMetrics []byte
	var baseSeconds float64
	for _, w := range counts {
		reg := obs.NewRegistry()
		cfg := Config{Mode: mode, Start: 1, Count: seeds, Replay: replay, Workers: w, Obs: reg}
		rep := RunObs(cfg, fn)
		canon := reg.Snapshot().MarshalCanonical()

		m := Measurement{
			Workers:    rep.Workers,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seconds:    rep.Elapsed.Seconds(),
			PerSeed:    metrics.SummarizeDurations(rep.Walls()),
			Failures:   len(rep.Failed()),
		}
		if m.Seconds > 0 {
			m.SeedsPerSec = float64(seeds) / m.Seconds
		}
		if w == 1 {
			baseReport, baseFailures = rep.String(), rep.FailureOutput()
			baseMetrics = canon
			baseSeconds = m.Seconds
			m.ReportIdentical = true
			m.MetricsIdentical = true
			m.Speedup = 1
		} else {
			m.ReportIdentical = rep.String() == baseReport && rep.FailureOutput() == baseFailures
			m.MetricsIdentical = string(canon) == string(baseMetrics)
			if m.Seconds > 0 {
				m.Speedup = baseSeconds / m.Seconds
			}
		}
		if m.Speedup > b.BestSpeedup {
			b.BestSpeedup = m.Speedup
			b.BestWorkers = m.Workers
		}
		b.Curve = append(b.Curve, m)
	}
	return b, nil
}
