//go:build !race

package rchdroid_test

import (
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/benchapp"
	"rchdroid/internal/bundle"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/device"
	"rchdroid/internal/experiments"
	"rchdroid/internal/looper"
	"rchdroid/internal/oracle"
	"rchdroid/internal/resources"
	"rchdroid/internal/sim"
	"rchdroid/internal/view"
)

// TestAllocBudget is the allocation gate on the state-transfer and
// dispatch hot path. Allocation counts are deterministic, so each
// ceiling is the measured count plus a little headroom: a change that
// adds allocations to one of these paths fails here and must either
// remove them or raise the ceiling on purpose. The race runtime
// allocates on its own schedule, hence the build tag.
func TestAllocBudget(t *testing.T) {
	oracleSpec := device.Spec{App: func() *app.App { return oracle.OracleApp(4) }}
	tpl, err := device.NewTemplate(oracleSpec)
	if err != nil {
		t.Fatal(err)
	}
	root := view.NewDecorView(1)
	for i := 0; i < 64; i++ {
		root.AddChild(view.NewEditText(view.ID(10+i), "content"))
	}
	cache := device.NewTemplateCache()
	rig := experiments.NewRig(benchapp.New(benchapp.Config{Images: 8, TaskDelay: time.Hour}), experiments.ModeRCHDroid)
	var seed uint64
	// The event-path rows post a pre-built body with a 1 µs cost, so a
	// hundred runs stay inside one CPU-meter window.
	sched := sim.NewScheduler()
	ui := looper.New(sched, "gate:ui")
	proc := app.NewProcess(sched, costmodel.Default(),
		&app.App{Name: "gate", Resources: resources.NewTable(), Main: &app.ActivityClass{Name: "Main"}})
	body := func() {}
	charged := func() time.Duration { return time.Microsecond }

	cases := []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"bundle save+restore, 64 views", 272, func() {
			state := bundle.New()
			root.SaveState(state)
			root.RestoreState(state)
		}},
		{"Rig.Rotate", 70, func() {
			if _, err := rig.Rotate(); err != nil {
				t.Fatal(err)
			}
		}},
		{"device.New, oracle spec", 112, func() {
			seed++
			device.New(oracleSpec, seed, nil)
		}},
		{"Template.Fork, oracle spec", 54, func() {
			seed++
			if _, err := tpl.Fork(seed, nil); err != nil {
				t.Fatal(err)
			}
		}},
		// The construction call every sweep seed and explore schedule
		// makes; the warm-up call below builds the key's template.
		{"TemplateCache.Fork warm, oracle spec", 54, func() {
			seed++
			cache.Fork("images:4", oracleSpec, seed, nil)
		}},
		// One message through the looper's event path: the queue holds
		// messages by value and the pump event is re-armed in place.
		{"Looper.Post + dispatch", 0, func() {
			ui.Post("m", time.Microsecond, body)
			sched.Run()
		}},
		{"Process.PostApp + dispatch", 0, func() {
			proc.PostApp("m", time.Microsecond, body)
			sched.Run()
		}},
		{"ActivityThread.RunCharged + dispatch", 0, func() {
			proc.Thread().RunCharged("m", charged)
			sched.Run()
		}},
	}
	for _, c := range cases {
		c.fn() // warm lazily built state (cached view keys, slice capacity)
		got := testing.AllocsPerRun(100, c.fn)
		t.Logf("%s: %.0f allocs (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
