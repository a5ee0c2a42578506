// Gcpolicy explores the threshold-based shadow-activity GC of §3.5: it
// sweeps THRESH_T over the paper's burst workload (six changes per
// minute, Fig 11) and prints the latency / CPU / memory trade-off, then
// demonstrates a single collection live.
package main

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/core"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/experiments"
	"rchdroid/internal/sim"
)

func main() {
	fmt.Println(experiments.FormatResult(experiments.Fig11()))

	fmt.Println("live demonstration of one collection (THRESH_T = 50 s):")
	sched := sim.NewScheduler()
	model := costmodel.Default()
	system := atms.New(sched, model)
	proc := app.NewProcess(sched, model, benchapp.New(benchapp.Config{Images: 8}))
	rch := core.Install(system, proc, core.DefaultOptions())
	rch.GC.OnCollected = func(a *app.Activity) {
		fmt.Printf("  [%v] GC reclaimed shadow activity #%d (%d sweeps so far)\n",
			sched.Now(), a.Token(), rch.Summary().GCSweeps)
	}
	system.LaunchApp(proc)
	sched.Advance(time.Second)

	system.PushConfiguration(system.GlobalConfig().Rotated())
	sched.Advance(time.Second)
	fmt.Printf("  [%v] after one change: shadow alive, memory %.2f MB\n",
		sched.Now(), proc.Memory().CurrentMB())

	sched.Advance(80 * time.Second) // idle: age passes THRESH_T, frequency decays
	fmt.Printf("  [%v] after 80 s idle: shadow=%v, memory %.2f MB\n",
		sched.Now(), proc.Thread().CurrentShadow() != nil,
		proc.Memory().CurrentMB())

	system.PushConfiguration(system.GlobalConfig().Rotated())
	sched.Advance(time.Second)
	sum := rch.Summary()
	fmt.Printf("  [%v] next change after GC pays the init path again: %.2f ms "+
		"(init launches: %d, flips: %d)\n",
		sched.Now(),
		float64(system.LastHandlingTime())/float64(time.Millisecond),
		sum.InitLaunches, sum.Flips)
}
