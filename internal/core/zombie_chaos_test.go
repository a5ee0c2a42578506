package core

import (
	"errors"
	"testing"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/atms"
	"rchdroid/internal/chaos"
	"rchdroid/internal/config"
	"rchdroid/internal/costmodel"
	"rchdroid/internal/sim"
)

// TestTrimMemoryReleasesShadowAndReapsZombies drives the §3.5 memory
// seam end to end: a trim while the coupled shadow still has an
// asynchronous task in flight must demote it to a zombie (never destroy
// it — that is the §2.2 crash), and once the task drains the next trim
// reaps it, with the reap visible in the handler's counters.
func TestTrimMemoryReleasesShadowAndReapsZombies(t *testing.T) {
	r := newRig(t, benchApp(4, 600*time.Millisecond), true)

	// Task on the foreground instance, then a change: the instance
	// enters the shadow state with the task still in flight. Advance only
	// part-way so the trim lands before the 600 ms task drains.
	r.clickButton(t)
	r.sys.PushConfiguration(config.Portrait())
	r.sched.Advance(300 * time.Millisecond)
	shadow := r.proc.Thread().CurrentShadow()
	if shadow == nil {
		t.Fatal("no shadow after the change")
	}
	if shadow.AsyncInFlight() == 0 {
		t.Fatal("test setup: shadow has no task in flight")
	}

	// Memory pressure while the task is pending: demote, don't destroy.
	r.proc.TrimMemory()
	r.sched.Advance(50 * time.Millisecond)
	if r.proc.Thread().CurrentShadow() != nil {
		t.Fatal("trim left the shadow coupled")
	}
	if shadow.State() != app.StateStopped {
		t.Fatalf("shadow state after trim = %v, want Stopped (zombie)", shadow.State())
	}
	if got := r.rch.Handler.Zombies(); got != 1 {
		t.Fatalf("Zombies = %d, want 1", got)
	}

	// The task drains onto the still-alive zombie; a second trim reaps it.
	r.sched.Advance(2 * time.Second)
	if r.proc.Crashed() {
		t.Fatalf("task landing on zombie crashed: %v", r.proc.CrashCause())
	}
	r.proc.TrimMemory()
	r.sched.Advance(50 * time.Millisecond)
	if got := r.rch.Handler.Zombies(); got != 0 {
		t.Fatalf("Zombies after drain+trim = %d, want 0", got)
	}
	if got := r.rch.Summary().ZombiesReaped; got != 1 {
		t.Fatalf("ZombiesReaped = %d, want 1", got)
	}
	if shadow.State() != app.StateDestroyed {
		t.Fatalf("reaped zombie state = %v, want Destroyed", shadow.State())
	}
}

// TestRepeatedChaosKillsNoShadowLeak kills the process at varying
// offsets inside a change handling — including mid-flip — then reboots
// it with RCHDroid reinstalled, monkey-style. Across the kill/reboot
// cycles nothing may leak: the rebooted process starts with exactly one
// instance, the ATMS stack stays at one task, and a full post-reboot
// change cycle still works (the surviving process reaps its zombies).
func TestRepeatedChaosKillsNoShadowLeak(t *testing.T) {
	sched := sim.NewScheduler()
	model := costmodel.Default()
	sys := atms.New(sched, model)

	var rch *RCHDroid
	boot := func() *app.Process {
		proc := app.NewProcess(sched, model, benchApp(4, 300*time.Millisecond))
		rch = Install(sys, proc, DefaultOptions())
		sys.LaunchApp(proc)
		sched.Advance(2 * time.Second)
		return proc
	}
	proc := boot()

	click := func() {
		if fg := proc.Thread().ForegroundActivity(); fg != nil {
			btn := fg.FindViewByID(1)
			if b, ok := btn.(interface{ Click() }); ok {
				proc.PostApp("tap", time.Millisecond, b.Click)
				sched.Advance(50 * time.Millisecond)
			}
		}
	}

	// Kill offsets inside the handling: right after the enter-shadow
	// save, mid-flip, and while the relaunch pipeline runs.
	offsets := []time.Duration{5 * time.Millisecond, 40 * time.Millisecond, 120 * time.Millisecond}
	cfg := config.Default()
	for round := 0; round < 6; round++ {
		// One full warm-up change so a shadow partner exists and the next
		// change takes the flip path.
		cfg = cfg.Rotated()
		sys.PushConfiguration(cfg)
		sched.Advance(2 * time.Second)
		click() // async work in flight when the kill lands

		cfg = cfg.Rotated()
		sys.PushConfiguration(cfg)
		sched.Advance(offsets[round%len(offsets)]) // kill mid-handling
		proc.Crash(chaos.ErrKilled)
		if !proc.Crashed() || !errors.Is(proc.CrashCause(), chaos.ErrKilled) {
			t.Fatalf("round %d: kill not recorded: %v", round, proc.CrashCause())
		}

		proc = boot() // the user reopens the app
		if got := len(proc.Thread().Activities()); got != 1 {
			t.Fatalf("round %d: rebooted process has %d instances, want 1", round, got)
		}
		if proc.Thread().CurrentShadow() != nil {
			t.Fatalf("round %d: rebooted process inherited a shadow", round)
		}
		if got := rch.Handler.Zombies(); got != 0 {
			t.Fatalf("round %d: rebooted handler has %d zombies", round, got)
		}
		if got := sys.Stack().Len(); got != 1 {
			t.Fatalf("round %d: ATMS stack has %d tasks, want 1", round, got)
		}
	}

	// The surviving process must still run a full zombie lifecycle: task
	// in flight, change to a third configuration (stale shadow → zombie),
	// drain, reap.
	sys.PushConfiguration(cfg.Rotated())
	sched.Advance(2 * time.Second)
	click()
	sys.PushConfiguration(cfg.Resized(2560, 1440))
	sched.Advance(3 * time.Second)
	if proc.Crashed() {
		t.Fatalf("post-kill change cycle crashed: %v", proc.CrashCause())
	}
	if got := rch.Handler.Zombies(); got != 0 {
		t.Fatalf("zombies not reaped on surviving process: %d", got)
	}
	if fg := proc.Thread().ForegroundActivity(); fg == nil {
		t.Fatal("no foreground activity after post-kill cycle")
	}
	if got := len(proc.Thread().Activities()); got > 2 {
		t.Fatalf("surviving process tracks %d instances, want <= 2", got)
	}
}
