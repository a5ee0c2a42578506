package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"time"

	"rchdroid/internal/chaos"
	"rchdroid/internal/core"
	"rchdroid/internal/device"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle"
	"rchdroid/internal/serve"
	"rchdroid/internal/sweep"
	"rchdroid/internal/view"
	"rchdroid/internal/workload"
)

// Per-layer sample counts: enough calls that each median is steady, and
// 1000 oracle seeds so that their p99 has ten samples beyond it.
const (
	ledgerCalls = 300
	oracleSeeds = 1000
	wireCalls   = 20000
	rttCalls    = 1000
	// monkeyEvents is the size of a timed monkey burst, the middle of
	// the 5..24 events the workload generator draws.
	monkeyEvents = 15
)

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// allocsPer runs fn n times untimed and returns the allocations per call.
func allocsPer(n int, fn func(i int)) float64 {
	m0 := mallocs()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(mallocs()-m0) / float64(n)
}

// layerRun times n calls of fn, each inside its own span, and returns
// the durations.
func layerRun(t *tracer, name string, parent, n int, fn func(i int)) []time.Duration {
	out := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		out[i] = t.timed(name, strconv.Itoa(i), parent, 0, func() { fn(i) })
	}
	return out
}

// medUS is the median of durations in microseconds.
func medUS(ds []time.Duration) float64 { return median(us(ds)) }

// microLedger times the calls into each framework, service and wire
// layer that every workload crosses, and records their per-layer
// metrics. Each call is its own span under parent.
func microLedger(e *env, t *tracer, r *report, parent int) error {
	spec := oracleSpec()
	arm, _ := armFor(serve.HandlerRCH)

	// device: fresh build and template fork.
	r.metric("device.new_us", "us", medUS(layerRun(t, "device.New", parent, ledgerCalls, func(i int) {
		device.New(spec, uint64(i), nil)
	})))
	r.metric("device.new_allocs", "count", allocsPer(ledgerCalls, func(i int) { device.New(spec, uint64(i), nil) }))
	tpl, err := device.NewTemplate(spec)
	if err != nil {
		return fmt.Errorf("template: %w", err)
	}
	fork := func(i int) *device.World {
		w, err := tpl.Fork(uint64(i), arm)
		if err != nil {
			panic(err) // NewTemplate's trial fork already succeeded
		}
		return w
	}
	r.metric("device.fork_us", "us", medUS(layerRun(t, "Template.Fork", parent, ledgerCalls, func(i int) { fork(i) })))
	r.metric("device.fork_allocs", "count", allocsPer(ledgerCalls, func(i int) { fork(i) }))

	// sim: one drive of each kind on a forked world armed with
	// core.Install. The night drive is timed from day mode; an untimed
	// day drive restores it between samples.
	w := fork(0)
	var timedNS, timedEvents, allocs, allocEvents float64
	for _, kind := range []string{serve.KindRotate, serve.KindNight, serve.KindSwitch, serve.KindTrim, serve.KindMonkey} {
		req := serve.Request{Kind: kind, Events: monkeyEvents}
		drive := func(i int, timed bool) (time.Duration, uint64) {
			if kind == serve.KindNight {
				driveWorld(w, serve.Request{Kind: serve.KindDay})
			}
			req.Seed = uint64(i)
			f0 := w.Sched.Fired()
			var d time.Duration
			if timed {
				d = t.timed("sim."+kind, strconv.Itoa(i), parent, 0, func() { driveWorld(w, req) })
			} else {
				driveWorld(w, req)
			}
			return d, w.Sched.Fired() - f0
		}
		ds := make([]time.Duration, ledgerCalls)
		var fired uint64
		for i := range ds {
			d, n := drive(i, true)
			ds[i], fired = d, fired+n
			timedNS += float64(d)
		}
		timedEvents += float64(fired)
		r.metric("sim."+kind+"_us", "us", medUS(ds))
		r.metric("sim.events_per_"+kind, "count", float64(fired)/ledgerCalls)
		if kind == serve.KindMonkey {
			r.metric("monkey.event_us", "us", medUS(ds)/monkeyEvents)
		}
		// Allocations come from an untimed pass; a night sample's day
		// drive counts in both its allocations and its events.
		m0, f0 := mallocs(), w.Sched.Fired()
		for i := 0; i < ledgerCalls; i++ {
			drive(i, false)
		}
		allocs += float64(mallocs() - m0)
		allocEvents += float64(w.Sched.Fired() - f0)
	}
	r.metric("sim.ns_per_event", "ns", timedNS/timedEvents)
	r.metric("sim.allocs_per_event", "count", allocs/allocEvents)

	// bundle: save and restore the settled oracle activity's state.
	fg := fork(1).Proc.Thread().ForegroundActivity()
	if fg == nil {
		return fmt.Errorf("forked oracle world has no foreground activity")
	}
	saved := fg.SaveInstanceState()
	r.metric("bundle.save_us", "us", medUS(layerRun(t, "Activity.SaveInstanceState", parent, ledgerCalls, func(int) { fg.SaveInstanceState() })))
	r.metric("bundle.save_allocs", "count", allocsPer(ledgerCalls, func(int) { fg.SaveInstanceState() }))
	r.metric("bundle.restore_us", "us", medUS(layerRun(t, "Activity.RestoreInstanceState", parent, ledgerCalls, func(int) { fg.RestoreInstanceState(saved) })))

	// view: walk and dirty scan of the settled tree.
	root := fg.Decor()
	r.metric("view.walk_us", "us", medUS(layerRun(t, "view.Walk", parent, ledgerCalls, func(int) {
		view.Walk(root, func(view.View) bool { return true })
	})))
	r.metric("view.dirty_us", "us", medUS(layerRun(t, "view.DirtyViews", parent, ledgerCalls, func(int) { view.DirtyViews(root) })))

	// core: essence mapping and migration between the shadow and the
	// sunny tree that a rotate leaves behind.
	rw := fork(2)
	driveWorld(rw, serve.Request{Kind: serve.KindRotate})
	sunny := rw.Proc.Thread().ForegroundActivity()
	var shadow view.View
	for _, a := range rw.Proc.Thread().Activities() {
		if a != sunny && a.Decor() != nil {
			shadow = a.Decor()
		}
	}
	if sunny == nil || shadow == nil {
		return fmt.Errorf("rotate left no shadow/sunny pair")
	}
	r.metric("core.essence_map_us", "us", medUS(layerRun(t, "core.BuildEssenceMapping", parent, ledgerCalls, func(int) {
		core.BuildEssenceMapping(shadow, sunny.Decor())
	})))
	r.metric("core.migrate_us", "us", medUS(layerRun(t, "core.MigrateView", parent, ledgerCalls, func(int) {
		view.Walk(shadow, func(v view.View) bool { core.MigrateView(v); return true })
	})))

	// oracle: the differential judge of one seed, stock against RCHDroid.
	var handlings, injections int
	start := sweepStart(e.seed) + 700_000
	seedDs := layerRun(t, "oracle.DifferentialWith", parent, oracleSeeds, func(i int) {
		v := oracle.DifferentialWith(start+uint64(i), sweep.RCHInstaller(), chaos.Light(), nil)
		handlings += v.RCH.Handlings
		injections += v.RCH.Injections
	})
	seedT := summarize(us(seedDs))
	r.metric("oracle.seed_p50_us", "us", seedT.P50)
	r.metric("oracle.seed_p99_us", "us", seedT.P99)
	r.metric("oracle.handlings_per_seed", "count", float64(handlings)/oracleSeeds)
	r.metric("oracle.injections_per_seed", "count", float64(injections)/oracleSeeds)

	// obs: snapshot and canonical marshal of a sweep's registry.
	reg := obs.NewRegistry()
	sweep.RunObs(sweep.Config{Mode: "oracle", Start: start, Count: 256, Workers: batchWorkers, Obs: reg}, sweep.OracleRunner())
	r.metric("obs.canonical_ms", "ms", median(ms(layerRun(t, "obs.MarshalCanonical", parent, 20, func(int) {
		reg.Snapshot().MarshalCanonical()
	}))))

	if err := serveLedger(t, r, parent); err != nil {
		return err
	}

	// workload: generate and decode one fleet day.
	var encoded []byte
	r.metric("workload.generate_ms", "ms", median(ms(layerRun(t, "workload.Generate", parent, 5, func(int) {
		encoded = workload.Generate(fleetDaySpec(e.seed, 0)).Encode()
	}))))
	var decodeErr error
	r.metric("workload.decode_ms", "ms", median(ms(layerRun(t, "workload.Decode", parent, 5, func(int) {
		_, decodeErr = workload.Decode(bytes.NewReader(encoded))
	}))))
	return decodeErr
}

// serveLedger times the fleet service in process (Submit, boot, the
// shard hop) and over loopback TCP, and the wire codec.
func serveLedger(t *tracer, r *report, parent int) error {
	srv := serve.New(serve.Config{Shards: fleetShards})
	defer srv.Drain(10 * time.Second)
	var err error
	submit := func(req serve.Request) {
		if resp := srv.Submit(req); !resp.OK && err == nil {
			err = fmt.Errorf("serve ledger: %s %s: %s %s", req.Op, req.Device, resp.Code, resp.Detail)
		}
	}
	dev := func(i int) string { return fmt.Sprintf("l-%03d", i%fleetDevices) }
	boot := layerRun(t, "serve.Submit boot", parent, fleetDevices, func(i int) {
		submit(serve.Request{Op: serve.OpBoot, Device: dev(i), Seed: uint64(i)})
	})
	flip := layerRun(t, "serve.Submit rotate", parent, ledgerCalls, func(i int) {
		submit(serve.Request{Op: serve.OpDrive, Device: dev(i), Kind: serve.KindRotate})
	})
	burst := layerRun(t, "serve.Submit monkey", parent, ledgerCalls, func(i int) {
		submit(serve.Request{Op: serve.OpDrive, Device: dev(i), Kind: serve.KindMonkey, Events: monkeyEvents, Seed: uint64(i)})
	})
	if err != nil {
		return err
	}
	r.metric("serve.boot_us", "us", medUS(boot))
	r.metric("serve.submit_flip_us", "us", medUS(flip))
	r.metric("serve.submit_burst_us", "us", medUS(burst))
	if rot, ok := r.find("sim.rotate_us"); ok {
		r.metric("serve.hop_us", "us", medUS(flip)-rot.Value)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeListener(ln) }()
	defer func() { ln.Close(); <-served }()
	cl, err := dialClient(ln.Addr().String(), 1)
	if err != nil {
		return err
	}
	defer cl.close()
	var line []byte
	rtt := func(name string, req serve.Request) ([]time.Duration, error) {
		var callErr error
		ds := layerRun(t, name, parent, rttCalls, func(i int) {
			req.ID = strconv.Itoa(i)
			if req.Op == serve.OpDrive {
				req.Device = dev(i)
			}
			resp, l, err := cl.callLine(req)
			line = l
			if err == nil && !resp.OK {
				err = fmt.Errorf("%s: %s", req.Op, resp.Code)
			}
			if callErr == nil {
				callErr = err
			}
		})
		return ds, callErr
	}
	health, err := rtt("tcp.roundtrip health", serve.Request{Op: serve.OpHealth})
	if err != nil {
		return err
	}
	rot, err := rtt("tcp.roundtrip rotate", serve.Request{Op: serve.OpDrive, Kind: serve.KindRotate})
	if err != nil {
		return err
	}
	r.metric("tcp.health_rtt_us", "us", medUS(health))
	r.metric("tcp.flip_rtt_us", "us", medUS(rot))

	// wire: the JSON codec of one rotate request and its reply line.
	req := serve.Request{ID: "d12345", Op: serve.OpDrive, Device: "w-042", Kind: serve.KindRotate}
	reqLine, _ := json.Marshal(&req)
	t0 := time.Now()
	for i := 0; i < wireCalls; i++ {
		json.Marshal(&req)
	}
	r.metric("wire.encode_ns", "ns", float64(time.Since(t0))/wireCalls)
	var resp serve.Response
	t0 = time.Now()
	for i := 0; i < wireCalls; i++ {
		resp = serve.Response{}
		json.Unmarshal(line, &resp)
	}
	r.metric("wire.decode_ns", "ns", float64(time.Since(t0))/wireCalls)
	r.metric("wire.req_bytes", "bytes", float64(len(reqLine)+1))
	r.metric("wire.resp_bytes", "bytes", float64(len(line)))

	counters, err := cl.stats("serve_requests_total", "serve_shed_overload_total", "serve_device_panics_total",
		"serve_breaker_opens_total", "serve_deadline_overruns_total")
	if err != nil {
		return err
	}
	r.info("serve.requests", "count", float64(counters["serve_requests_total"]))
	r.info("serve.shed", "count", float64(counters["serve_shed_overload_total"]))
	r.info("serve.panics", "count", float64(counters["serve_device_panics_total"]))
	r.info("serve.breaker_opens", "count", float64(counters["serve_breaker_opens_total"]))
	r.info("serve.deadline_overruns", "count", float64(counters["serve_deadline_overruns_total"]))
	return nil
}
