package main

import (
	"fmt"
	"time"

	"rchdroid/internal/app"
	"rchdroid/internal/config"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
	"rchdroid/internal/guard"
	"rchdroid/internal/monkey"
	"rchdroid/internal/oracle"
	"rchdroid/internal/serve"
)

// oracleSpec is the device rchserve boots for the default spec: the
// oracle probe app.
func oracleSpec() device.Spec {
	return device.Spec{App: func() *app.App { return oracle.OracleApp(4) }}
}

// armFor arms a settled world with a change handler the way rchserve
// does for its handler names.
func armFor(handler string) (device.ArmFunc, error) {
	switch handler {
	case "", serve.HandlerRCH:
		return func(w *device.World) { core.Install(w.Sys, w.Proc, core.DefaultOptions()) }, nil
	case serve.HandlerGuarded:
		return func(w *device.World) {
			opts := core.DefaultOptions()
			cfg := guard.DefaultConfig()
			opts.Guard = &cfg
			core.Install(w.Sys, w.Proc, opts)
		}, nil
	case serve.HandlerStock:
		return nil, nil
	}
	return nil, fmt.Errorf("unknown handler %q", handler)
}

// driveWorld runs one drive request directly on a world, with the same
// calls into the framework layers that rchserve's shard makes for it.
func driveWorld(w *device.World, req serve.Request) error {
	switch req.Kind {
	case serve.KindRotate:
		w.Sys.PushConfiguration(w.Sys.GlobalConfig().Rotated())
		w.Sched.Advance(2 * time.Second)
	case serve.KindNight:
		w.Sys.PushConfiguration(w.Sys.GlobalConfig().WithUIMode(config.UIModeNight))
		w.Sched.Advance(2 * time.Second)
	case serve.KindDay:
		w.Sys.PushConfiguration(w.Sys.GlobalConfig().WithUIMode(config.UIModeDay))
		w.Sched.Advance(2 * time.Second)
	case serve.KindSwitch:
		if fg := w.Proc.Thread().ForegroundActivity(); fg != nil {
			tok := fg.Token()
			w.Proc.Thread().ScheduleMoveToBackground(tok)
			w.Sched.Advance(1 * time.Second)
			w.Proc.Thread().ScheduleMoveToForeground(tok)
		}
		w.Sched.Advance(1 * time.Second)
	case serve.KindTrim:
		w.Proc.TrimMemory()
		w.Sched.Advance(1 * time.Second)
	case serve.KindMonkey:
		monkey.Run(w.Sched, w.Sys, w.Proc, monkey.Options{Events: req.Events, Seed: req.Seed})
	default:
		return fmt.Errorf("unknown drive kind %q", req.Kind)
	}
	return nil
}
