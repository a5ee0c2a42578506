// Command perfbench is the repository benchmark. It builds nothing
// itself: perfbench/run.sh builds rchsweep, rchexplore, rchserve and
// this program from the checkout, then runs
//
//	perfbench -bin <dir> -work <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the workload end to end through the
// binaries users run, with no tracing, and prints the end-to-end
// metrics. With --trace 1 it runs the workload's layers in process
// with spans recorded around each call into a layer's public
// functions, and prints the per-layer ledger. Either way the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A run whose correctness gate fails prints the failed checks and
// "correct": false with no metrics, and exits 1. See README.md for the
// workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchWorkload is one named set of inputs.
type benchWorkload struct {
	name string
	// run measures the workload end to end (--trace 0).
	run func(*env, *report) error
	// traced runs the workload's layers with spans (--trace 1).
	traced func(*env, *report) error
}

var workloads = []benchWorkload{
	{name: "sweep-oracle", run: runSweep, traced: traceSweep},
	{name: "explore-depth3", run: runExplore, traced: traceExplore},
	{name: "fleet-diurnal", run: runFleet, traced: traceFleet},
}

// e2eMetrics are the end-to-end metrics every --trace 0 run reports,
// in BENCHMARK.json order.
var e2eMetrics = []string{"ops_per_s", "cpu_us_per_op", "max_rss_mb", "setup_s"}

// layerMetrics are the per-layer metrics every --trace 1 run reports,
// in BENCHMARK.json order.
var layerMetrics = []string{
	"device.new_us", "device.new_allocs", "device.fork_us", "device.fork_allocs",
	"sim.rotate_us", "sim.night_us", "sim.switch_us", "sim.trim_us", "sim.monkey_us",
	"sim.events_per_rotate", "sim.events_per_night", "sim.events_per_switch",
	"sim.events_per_trim", "sim.events_per_monkey", "sim.ns_per_event", "sim.allocs_per_event",
	"bundle.save_us", "bundle.save_allocs", "bundle.restore_us",
	"core.essence_map_us", "core.migrate_us",
	"view.walk_us", "view.dirty_us",
	"monkey.event_us",
	"oracle.seed_p50_us", "oracle.seed_p99_us", "oracle.handlings_per_seed", "oracle.injections_per_seed",
	"obs.canonical_ms",
	"serve.submit_flip_us", "serve.submit_burst_us", "serve.boot_us", "serve.hop_us",
	"tcp.health_rtt_us", "tcp.flip_rtt_us",
	"wire.encode_ns", "wire.decode_ns", "wire.req_bytes", "wire.resp_bytes",
	"workload.generate_ms", "workload.decode_ms",
	"engine.op_p50_us", "engine.op_p99_us", "engine.busy_ratio",
	"trace.overhead_ratio",
}

// env is what a workload runs with.
type env struct {
	bin     string // directory holding the built binaries
	work    string // per-run scratch and output directory
	seed    uint64
	seconds int
	stamp   stamp
}

// path returns the built binary name's path.
func (e *env) path(name string) string { return filepath.Join(e.bin, name) }

// row is one printed number.
type row struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// check is one correctness-gate item.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report collects a run's numbers and checks.
type report struct {
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Checks    []check `json:"checks"`
	// Metrics holds the numbers BENCHMARK.json names; Info holds the
	// other numbers the run prints, such as the per-class fleet
	// latencies and the workload-specific ledger rows.
	Metrics []row `json:"metrics"`
	Info    []row `json:"info"`
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) metric(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, row{name, unit, v})
}

// info records a number that is printed but not gated. A NaN, such as
// a p99 with too few samples behind it, is left out.
func (r *report) info(name, unit string, v float64) {
	if math.IsNaN(v) {
		return
	}
	r.Info = append(r.Info, row{name, unit, v})
}

func (r *report) ok() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "0 = end-to-end run, 1 = traced per-layer run")
	bin := fs.String("bin", "", "directory holding the built rchsweep, rchexplore and rchserve")
	work := fs.String("work", "", "directory for run outputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1 || *seconds > 600:
		fmt.Fprintln(stderr, "perfbench: --seconds must be 1..600")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case *bin == "" || *work == "":
		fmt.Fprintln(stderr, "perfbench: -bin and -work are required (use perfbench/run.sh)")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	e := &env{bin: *bin, work: *work, seed: *seed, seconds: *seconds, stamp: newStamp(*seed)}
	fmt.Fprintf(stdout, "perfbench workload=%s trace=%d %s\n", wl.name, *trace, e.stamp)

	rep := &report{}
	runFn, want := wl.run, e2eMetrics
	if *trace == 1 {
		runFn, want = wl.traced, layerMetrics
	}
	if err := runFn(e, rep); err != nil {
		rep.check("run", false, "%v", err)
	}
	for _, m := range want {
		if v, ok := rep.find(m); !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rep.check("metric "+m, false, "missing or not finite")
		}
	}
	printTable(stdout, rep)

	out := map[string]any{"workload": wl.name, "trace": *trace, "stamp": e.stamp, "report": rep}
	resultFile := filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, *seed, *trace))
	if b, err := json.MarshalIndent(out, "", "  "); err == nil {
		if err := os.WriteFile(resultFile, b, 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
	}

	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: rep.ok() && rep.Attempted >= 1, Attempted: max(rep.Attempted, 1), Failed: rep.Failed, Metrics: map[string]metricJSON{}}
	if line.Correct {
		for _, name := range want {
			m, _ := rep.find(name)
			line.Metrics[name] = metricJSON{m.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// find returns the gated metric of that name.
func (r *report) find(name string) (row, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return row{}, false
}

// printTable prints the checks, then every number by name with its unit.
func printTable(w io.Writer, r *report) {
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %-34s %s\n", status, c.Name, c.Detail)
	}
	if !r.ok() {
		fmt.Fprintln(w, "correctness gate failed: no numbers reported")
		return
	}
	rows := append([]row(nil), r.Metrics...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	for _, m := range rows {
		fmt.Fprintf(w, "metric %-30s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range r.Info {
		fmt.Fprintf(w, "  info %-30s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d failed_ratio=%g\n", r.Attempted, r.Failed,
		float64(r.Failed)/math.Max(1, float64(r.Attempted)))
}
