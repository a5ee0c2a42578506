package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"rchdroid/internal/device"
	"rchdroid/internal/explore"
	"rchdroid/internal/obs"
	"rchdroid/internal/oracle/corpus"
	"rchdroid/internal/serve"
	"rchdroid/internal/sweep"
)

// Traced-run sizing: the in-process passes repeat the timed run's work,
// so they are kept shorter than a timed run.
const (
	tracedSweepSeeds   = 4096
	tracedFleetSeconds = 6
)

// traced runs a workload's traced pass after the per-layer ledger, then
// writes the spans as a Chrome trace and adds the span ledger: calls
// and self time per span name.
func traced(e *env, r *report, name string, pass func(t *tracer, root int) error) error {
	t := &tracer{}
	root := t.begin("perfbench "+name, strconv.FormatUint(e.seed, 10), -1, 0)
	ledger := t.begin("layer ledger", "", root, 0)
	if err := microLedger(e, t, r, ledger); err != nil {
		return err
	}
	t.end(ledger)
	if err := pass(t, root); err != nil {
		return err
	}
	t.end(root)

	spans := t.snapshot()
	path := filepath.Join(e.work, fmt.Sprintf("%s-seed%d.trace.json", name, e.seed))
	if err := writeChrome(path, spans); err != nil {
		return err
	}
	r.check("span file is trace_event JSON", validTrace(path, len(spans)) == nil, "%s: %d spans", path, len(spans))
	for _, st := range totalsByName(spans) {
		r.info("span "+st.Name+" calls", "count", float64(st.Calls))
		r.info("span "+st.Name+" self_ms", "ms", float64(st.Self)/float64(time.Millisecond))
	}
	return nil
}

// validTrace re-reads a span file and checks its shape.
func validTrace(path string, want int) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		return err
	}
	if len(tr.TraceEvents) != want {
		return fmt.Errorf("%d events, want %d", len(tr.TraceEvents), want)
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Name == "" {
			return fmt.Errorf("bad event %+v", ev)
		}
	}
	return nil
}

// laneMap numbers sweep workers by their metric shard, so each worker's
// spans land on their own trace lane.
type laneMap struct {
	mu sync.Mutex
	m  map[*obs.Shard]int
}

func (l *laneMap) of(sh *obs.Shard) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = map[*obs.Shard]int{}
	}
	if _, ok := l.m[sh]; !ok {
		l.m[sh] = len(l.m) + 1
	}
	return l.m[sh]
}

// sameDump requires the in-process run's canonical metric dump to equal
// the timed CLI run's -metrics-out byte for byte, and prints its digest.
func sameDump(r *report, cliDump string, reg *obs.Registry) error {
	want, err := os.ReadFile(cliDump)
	if err != nil {
		return err
	}
	got := reg.Snapshot().MarshalCanonical()
	r.check("canonical dump byte-identical", string(got) == string(want),
		"sha256 %x (%d bytes) traced, %x (%d bytes) timed", sha256.Sum256(got), len(got), sha256.Sum256(want), len(want))
	return nil
}

// recordEngine stores the engine's per-operation walls and busy share.
func recordEngine(r *report, prefix string, walls []time.Duration, lanes int, elapsed time.Duration) {
	t := summarize(us(walls))
	var busy time.Duration
	for _, w := range walls {
		busy += w
	}
	ratio := float64(busy) / (float64(lanes) * float64(elapsed))
	r.metric("engine.op_p50_us", "us", t.P50)
	r.metric("engine.op_p99_us", "us", t.P99)
	r.metric("engine.busy_ratio", "ratio", ratio)
	r.info(prefix+".busy_ratio", "ratio", ratio)
	r.info(prefix+".op_p50_us", "us", t.P50)
	r.info(prefix+".op_p99_us", "us", t.P99)
	r.info(prefix+".ops", "count", float64(t.N))
}

// traceSweep runs the oracle sweep in process with a span per seed and
// compares it with a timed rchsweep run over the same seeds.
func traceSweep(e *env, r *report) error {
	return traced(e, r, "sweep-oracle", func(t *tracer, root int) error {
		start, n := sweepStart(e.seed), tracedSweepSeeds
		dump := filepath.Join(e.work, "sweep-oracle.metrics.json")
		p, err := sweepInvoke(r, e.path("rchsweep"), e.work, sweepArgs(start, n, "-metrics-out="+dump))
		if err != nil {
			return err
		}
		r.Attempted += int64(n)

		reg := obs.NewRegistry()
		runner := sweep.OracleRunner()
		var lanes laneMap
		sp := t.begin("sweep.RunObs", strconv.FormatUint(start, 10), root, 0)
		rep := sweep.RunObs(sweep.Config{Mode: "oracle", Start: start, Count: n, Workers: batchWorkers, Obs: reg},
			func(seed uint64, sh *obs.Shard) sweep.Outcome {
				var out sweep.Outcome
				t.timed("oracle.seed", strconv.FormatUint(seed, 10), sp, lanes.of(sh), func() { out = runner(seed, sh) })
				return out
			})
		t.end(sp)
		r.Attempted += int64(n)
		r.check("traced sweep passes", rep.OK() && rep.DoneCount() == n, "%s", rep.Tally())
		if err := sameDump(r, dump, reg); err != nil {
			return err
		}
		recordEngine(r, "sweep", rep.Walls(), rep.Workers, rep.Elapsed)
		// Timed and traced rates both include process start-up or pool
		// set-up, which a 4096-seed run amortizes to well under 1%.
		r.metric("trace.overhead_ratio", "ratio", rep.Elapsed.Seconds()/p.Wall.Seconds())
		return nil
	})
}

// traceExplore explores the corpus in process with a span per scenario
// and compares it with a timed rchexplore run of the whole corpus.
func traceExplore(e *env, r *report) error {
	return traced(e, r, "explore-depth3", func(t *tracer, root int) error {
		dump := filepath.Join(e.work, "explore-depth3.metrics.json")
		p, err := runProc(e.work, e.path("rchexplore"), fmt.Sprintf("-depth=%d", exploreDepth),
			fmt.Sprintf("-workers=%d", batchWorkers), "-metrics-out="+dump)
		if err != nil {
			return err
		}
		if p.Code != 0 {
			r.Failed++
			return fmt.Errorf("rchexplore exited %d: %s", p.Code, tail(p.Stdout, p.Stderr))
		}

		reg := obs.NewRegistry()
		var walls []time.Duration
		var elapsed time.Duration
		ok := true
		for _, sc := range corpus.All() {
			var res *explore.Result
			elapsed += t.timed("explore.Explore", sc.Name, root, 0, func() {
				res = explore.Explore(&sc, explore.Options{Depth: exploreDepth, Workers: batchWorkers, Obs: reg})
			})
			ok = ok && res.OK()
			walls = append(walls, res.Report.Walls()...)
			r.Attempted += int64(res.Report.Count)
		}
		r.check("traced exploration passes", ok, "%d schedules", len(walls))
		if err := sameDump(r, dump, reg); err != nil {
			return err
		}
		recordEngine(r, "explore", walls, batchWorkers, elapsed)
		r.metric("trace.overhead_ratio", "ratio", elapsed.Seconds()/p.Wall.Seconds())
		return nil
	})
}

// traceFleet replays the same days four times at the same rate: over
// TCP untraced and traced, through an in-process Server.Submit, and
// directly on forked armed worlds. Subtracting the passes request by
// request splits a request's time into wire and TCP, the serve hop and
// execution.
func traceFleet(e *env, r *report) error {
	return traced(e, r, "fleet-diurnal", func(t *tracer, root int) error {
		days := fleetDays(e.seed, tracedFleetSeconds)
		boots, drives := fleetRequests(days, fleetConns)
		encodeAll(boots)
		encodeAll(drives)

		plain, err := tcpPass(e, r, boots, drives, nil)
		if err != nil {
			return err
		}
		stamps := newLoopStamps(len(drives))
		tracedTCP, err := tcpPass(e, r, boots, drives, stamps)
		if err != nil {
			return err
		}
		sub, err := submitPass(r, boots, drives)
		if err != nil {
			return err
		}
		direct, err := directPass(r, boots, drives)
		if err != nil {
			return err
		}

		// Spans: the traced TCP pass per request, with its encode,
		// round trip and decode; the in-process passes per call.
		for i, d := range drives {
			due := tracedTCP.t0.Add(d.at)
			req := t.add(span{Name: "fleet.request", ID: d.id, Start: due, End: stamps.decEnd[i], Parent: root, Lane: 10 + d.lane})
			t.add(span{Name: "wire.encode", ID: d.id, Start: stamps.encStart[i], End: stamps.encEnd[i], Parent: req, Lane: 10 + d.lane})
			t.add(span{Name: "tcp.roundtrip", ID: d.id, Start: tracedTCP.sent[i], End: tracedTCP.replies[i].at, Parent: req, Lane: 10 + d.lane})
			t.add(span{Name: "wire.decode", ID: d.id, Start: tracedTCP.replies[i].at, End: stamps.decEnd[i], Parent: req, Lane: 10 + d.lane})
		}
		for _, p := range []struct {
			name string
			lp   lanePass
			lane int
		}{{"serve.Submit", sub, 20}, {"sim.drive", direct, 30}} {
			for i, d := range drives {
				t.add(span{Name: p.name, ID: d.id, Start: p.lp.start[i], End: p.lp.end[i], Parent: root, Lane: p.lane + d.lane})
			}
		}

		var wireTCP, hop, exec []time.Duration
		for i, d := range drives {
			latA := plain.replies[i].at.Sub(plain.t0.Add(d.at))
			latC := sub.end[i].Sub(sub.t0.Add(d.at))
			latD := direct.end[i].Sub(direct.t0.Add(d.at))
			wireTCP = append(wireTCP, latA-latC)
			hop = append(hop, latC-latD)
			exec = append(exec, direct.end[i].Sub(direct.start[i]))
		}
		r.info("fleet.wire_tcp_us", "us", medUS(wireTCP))
		r.info("fleet.serve_hop_us", "us", medUS(hop))
		var last time.Time
		for _, end := range direct.end {
			if end.After(last) {
				last = end
			}
		}
		recordEngine(r, "fleet.exec", exec, fleetConns, last.Sub(direct.t0))

		late := summarize(ms(plain.late))
		r.info("driver.late_p50_ms", "ms", late.P50)
		r.info("driver.late_p99_ms", "ms", late.P99)
		plainLat, tracedLat := summarize(ms(plain.lat)), summarize(ms(tracedTCP.lat))
		r.metric("trace.overhead_ratio", "ratio", tracedLat.P50/plainLat.P50)
		return nil
	})
}

// tcpResult is one open-loop pass over TCP.
type tcpResult struct {
	t0        time.Time
	replies   []reply
	sent      []time.Time
	lat, late []time.Duration
}

// tcpPass boots a fresh rchserve and replays the drives open loop over
// the pipelined connections; with stamps, each request is encoded when
// it is sent and its encode and decode are timed.
func tcpPass(e *env, r *report, boots, drives []wireReq, stamps *loopStamps) (tcpResult, error) {
	srv, cl, _, err := bootFleet(e, boots)
	if err != nil {
		return tcpResult{}, err
	}
	res := tcpResult{t0: time.Now().Add(20 * time.Millisecond)}
	var loopErr error
	res.replies, res.sent, loopErr = cl.openLoop(drives, res.t0, 30*time.Second, stamps)
	cl.close()
	_, stopErr := stopClean(srv)
	if loopErr != nil {
		return res, loopErr
	}
	r.Attempted += int64(len(drives))
	bad := 0
	for i, rp := range res.replies {
		res.late = append(res.late, res.sent[i].Sub(res.t0.Add(drives[i].at)))
		if !rp.ok {
			bad++
			continue
		}
		res.lat = append(res.lat, rp.at.Sub(res.t0.Add(drives[i].at)))
	}
	r.Failed += int64(bad)
	r.check(fmt.Sprintf("tcp pass (traced=%v) all OK", stamps != nil), bad == 0 && stopErr == nil,
		"%d of %d not OK, drain: %v", bad, len(drives), stopErr)
	return res, nil
}

// lanePass is one in-process open-loop pass: when each request started
// and ended.
type lanePass struct {
	t0         time.Time
	start, end []time.Time
}

// laneLoop replays requests open loop in process: one goroutine per
// lane runs its requests in order, each no earlier than its due time.
func laneLoop(reqs []wireReq, lanes int, do func(k int) bool) (lanePass, int) {
	lp := lanePass{t0: time.Now().Add(20 * time.Millisecond),
		start: make([]time.Time, len(reqs)), end: make([]time.Time, len(reqs))}
	byLane := make([][]int, lanes)
	for k, q := range reqs {
		byLane[q.lane] = append(byLane[q.lane], k)
	}
	bad := make([]int, lanes)
	var wg sync.WaitGroup
	for l := range byLane {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			defer precisePacing()()
			for _, k := range byLane[l] {
				if d := time.Until(lp.t0.Add(reqs[k].at)); d > 0 {
					sleepFor(d)
				}
				lp.start[k] = time.Now()
				if !do(k) {
					bad[l]++
				}
				lp.end[k] = time.Now()
			}
		}(l)
	}
	wg.Wait()
	total := 0
	for _, n := range bad {
		total += n
	}
	return lp, total
}

// submitPass replays the drives through an in-process Server.Submit.
func submitPass(r *report, boots, drives []wireReq) (lanePass, error) {
	srv := serve.New(serve.Config{Shards: fleetShards})
	for _, b := range boots {
		if resp := srv.Submit(b.req); !resp.OK {
			srv.Drain(10 * time.Second)
			return lanePass{}, fmt.Errorf("in-process boot %s: %s", b.req.Device, resp.Code)
		}
	}
	lp, bad := laneLoop(drives, fleetConns, func(k int) bool { return srv.Submit(drives[k].req).OK })
	err := srv.Drain(10 * time.Second)
	r.Attempted += int64(len(drives))
	r.Failed += int64(bad)
	r.check("in-process Submit pass all OK", bad == 0 && err == nil, "%d not OK, drain: %v", bad, err)
	return lp, nil
}

// directPass replays the drives directly on worlds forked from one
// template and armed per boot, with no service in between.
func directPass(r *report, boots, drives []wireReq) (lanePass, error) {
	cache := device.NewTemplateCache()
	worlds := map[string]*device.World{}
	for _, b := range boots {
		arm, err := armFor(b.req.Handler)
		if err != nil {
			return lanePass{}, err
		}
		worlds[b.req.Device] = cache.Fork("oracle", oracleSpec(), b.req.Seed, arm)
	}
	lp, bad := laneLoop(drives, fleetConns, func(k int) bool {
		return driveWorld(worlds[drives[k].req.Device], drives[k].req) == nil
	})
	r.Attempted += int64(len(drives))
	r.Failed += int64(bad)
	r.check("direct pass all OK", bad == 0, "%d drives failed", bad)
	return lp, nil
}
