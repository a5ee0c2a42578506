// Coinflip demonstrates §3.4: after the first runtime change has created
// a sunny instance, every later change that returns to a configuration
// the coupled shadow instance was built for is served by flipping the two
// live instances — no allocation, no inflation, no mapping rebuild — and
// the handling time drops accordingly.
package main

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/core"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/sim"
)

func main() {
	sched := sim.NewScheduler()
	model := costmodel.Default()
	system := atms.New(sched, model)
	proc := app.NewProcess(sched, model, benchapp.New(benchapp.Config{Images: 16}))
	rch := core.Install(system, proc, core.DefaultOptions())
	system.LaunchApp(proc)
	sched.Advance(time.Second)

	fmt.Println("rotating eight times; watch the first change pay for instance")
	fmt.Println("creation (RCHDroid-init) and every later one ride the coin flip:")
	fmt.Println()
	for i := 1; i <= 8; i++ {
		system.PushConfiguration(system.GlobalConfig().Rotated())
		sched.Advance(2 * time.Second)
		path := "coin flip"
		if rch.Summary().Flips == 0 || i == 1 {
			path = "init (new sunny instance)"
		}
		fmt.Printf("  change %d: %6.2f ms  [%s]\n", i,
			float64(system.LastHandlingTime())/float64(time.Millisecond), path)
	}

	fmt.Println()
	fmt.Printf("instances alive: %d (they swap roles instead of being recreated)\n",
		len(proc.Thread().Activities()))
	sum := rch.Summary()
	fmt.Printf("starter stats: %d record created, %d coin flips, %d stack searches\n",
		sum.CoinCreates, sum.CoinFlips, sum.CoinSearches)
	shadow, sunny := proc.Thread().CurrentShadow(), proc.Thread().CurrentSunny()
	fmt.Printf("current roles: #%d is Shadow (%v), #%d is Sunny (%v)\n",
		shadow.Token(), shadow.Config().Orientation,
		sunny.Token(), sunny.Config().Orientation)
}
