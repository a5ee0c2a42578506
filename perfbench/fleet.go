package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"rchdroid/internal/obs"
	"rchdroid/internal/serve"
	"rchdroid/internal/workload"
)

// Fleet sizing for a 2-core box: two shards, two pipelined client
// connections, and about 50 resident devices per shard, under the
// default 64-device shard limit. A run replays one compressed diurnal
// day per fleetDaySeconds. 20 drives per device per day is a mean near
// 1.1k requests/s and a peak hour near 2k/s; the fleet completes about
// 12k/s when saturated by deep pipelining. At twice this rate the
// connection-serial queues ran away whenever the shared 2-vCPU VM was
// descheduled (median latency 0.25 to 2 ms for the same seed), so the
// run measured the host rather than the fleet.
const (
	fleetShards     = 2
	fleetConns      = 2
	fleetDevices    = 100
	fleetDaySeconds = 2
	drivesPerDevice = 20
	fleetSetups     = 11
	// lateShare invalidates a run whose pacing fell behind: the load
	// generator's median lateness must stay under this share of the
	// median latency, or the latencies say more about the generator
	// than about the fleet.
	lateShare = 0.25
)

// fleetDays generates a run's logs, one compressed diurnal day each,
// enough days to fill the run and at least three. Every day drives the
// same device names; the first day's boots define the fleet.
func fleetDays(seed uint64, seconds int) []*workload.Log {
	logs := make([]*workload.Log, max(3, seconds/fleetDaySeconds))
	for d := range logs {
		logs[d] = workload.Generate(fleetDaySpec(seed, d))
	}
	return logs
}

// fleetDaySpec is the generator input of a seed's day d.
func fleetDaySpec(seed uint64, day int) workload.GenSpec {
	return workload.GenSpec{
		Seed:            seed<<8 | uint64(day),
		Devices:         fleetDevices,
		SpanMS:          fleetDaySeconds * 1000,
		EventsPerDevice: drivesPerDevice,
	}
}

// flipKind reports whether a log event is a configuration flip, the
// paper's transparently handled runtime change; the rest are bursts.
func flipKind(kind string) bool {
	return kind == workload.EvRotate || kind == workload.EvNight || kind == workload.EvDay
}

// wireReq is one request of a replay: its wire line, the connection it
// is pinned to, and when it is due relative to the start of the replay.
type wireReq struct {
	id   string
	lane int
	day  int
	at   time.Duration
	flip bool
	req  serve.Request
	line []byte
}

// laneOf pins a device to a connection by name. It is the same FNV-1a
// hash the server shards by, so with as many connections as shards a
// connection feeds exactly one shard.
func laneOf(device string, lanes int) int {
	h := fnv.New32a()
	h.Write([]byte(device))
	return int(h.Sum32() % uint32(lanes))
}

// fleetRequests turns the days into the boot requests of the first day
// and the drive requests of every day. Day d's drives are due at their
// log timestamp plus d day spans, counted from the first drive, plus a
// seeded offset within the millisecond: log timestamps are whole
// milliseconds, and sending every event of a millisecond at once would
// queue them behind each other, which real arrivals do not.
func fleetRequests(days []*workload.Log, lanes int) (boots, drives []wireReq) {
	first := int64(-1)
	for d, lg := range days {
		for _, ev := range lg.Events {
			lane := laneOf(ev.Device, lanes)
			if ev.Kind == workload.EvBoot {
				if d == 0 {
					id := fmt.Sprintf("b%d", len(boots))
					boots = append(boots, wireReq{id: id, lane: lane, req: serve.Request{
						ID: id, Op: serve.OpBoot, Device: ev.Device, Handler: ev.Handler, Seed: ev.Seed}})
				}
				continue
			}
			if first < 0 {
				first = ev.AtMS
			}
			id := fmt.Sprintf("d%d", len(drives))
			req := serve.Request{ID: id, Op: serve.OpDrive, Device: ev.Device, Kind: ev.Kind}
			if ev.Kind == workload.EvBurst {
				req.Kind, req.Seed, req.Events = serve.KindMonkey, ev.Seed, ev.Events
			}
			at := time.Duration(int64(d)*lg.Header.SpanMS+ev.AtMS-first) * time.Millisecond
			at += time.Duration(mix(lg.Header.Seed, uint64(len(drives))) % uint64(time.Millisecond))
			drives = append(drives, wireReq{id: id, lane: lane, day: d, flip: flipKind(ev.Kind), req: req, at: at})
		}
	}
	sort.SliceStable(drives, func(i, j int) bool { return drives[i].at < drives[j].at })
	return boots, drives
}

// encodeAll renders each request's wire line ahead of the timed phase.
func encodeAll(reqs []wireReq) {
	for i := range reqs {
		b, _ := json.Marshal(&reqs[i].req)
		reqs[i].line = append(b, '\n')
	}
}

// reply is what came back for one request.
type reply struct {
	answered bool
	at       time.Time
	ok       bool
	code     serve.ErrCode
}

// client is the load generator's side of the pipelined connections.
type client struct {
	conns []net.Conn
	rd    []*bufio.Reader
}

func dialClient(addr string, n int) (*client, error) {
	c := &client{}
	for i := 0; i < n; i++ {
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			c.close()
			return nil, err
		}
		c.conns = append(c.conns, conn)
		c.rd = append(c.rd, bufio.NewReaderSize(conn, 1<<16))
	}
	return c, nil
}

func (c *client) close() {
	for _, conn := range c.conns {
		conn.Close()
	}
}

// callLine sends one request on lane 0 and waits for its reply; for
// requests outside a timed replay. It returns the reply and its line.
func (c *client) callLine(req serve.Request) (serve.Response, []byte, error) {
	var resp serve.Response
	b, _ := json.Marshal(&req)
	c.conns[0].SetDeadline(time.Now().Add(30 * time.Second))
	defer c.conns[0].SetDeadline(time.Time{})
	if _, err := c.conns[0].Write(append(b, '\n')); err != nil {
		return resp, nil, err
	}
	line, err := c.rd[0].ReadBytes('\n')
	if err != nil {
		return resp, nil, err
	}
	err = json.Unmarshal(line, &resp)
	return resp, line, err
}

// stats reads counters from the server's merged metric snapshot; a
// counter the snapshot lacks reads -1.
func (c *client) stats(names ...string) (map[string]int64, error) {
	resp, _, err := c.callLine(serve.Request{ID: "stats", Op: serve.OpStats})
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if !resp.OK {
		return nil, fmt.Errorf("stats refused: %s %s", resp.Code, resp.Detail)
	}
	snap, err := obs.DecodeSnapshot(resp.Metrics)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, n := range names {
		out[n] = -1
	}
	for _, m := range snap.Metrics {
		if _, ok := out[m.Name]; ok {
			out[m.Name] = m.Value
		}
	}
	return out, nil
}

// loopStamps are the client-side times a traced replay records: when
// each request's encoding started and ended, and when its reply was
// decoded.
type loopStamps struct {
	encStart, encEnd, decEnd []time.Time
}

func newLoopStamps(n int) *loopStamps {
	return &loopStamps{make([]time.Time, n), make([]time.Time, n), make([]time.Time, n)}
}

// openLoop sends every request on its lane at its due time, t0 + at,
// whether or not earlier replies are back. One pacing loop sends
// everything due on each wake-up; a reader per connection matches the
// in-order replies to requests and stamps their arrival. sent[i] is
// when the write carrying request i began; wait bounds how long after
// the last due time replies are awaited. With stamps, requests are
// encoded as they are sent instead of ahead of time, and the codec is
// timed.
func (c *client) openLoop(reqs []wireReq, t0 time.Time, wait time.Duration, stamps *loopStamps) (replies []reply, sent []time.Time, err error) {
	lanes := len(c.conns)
	replies = make([]reply, len(reqs))
	sent = make([]time.Time, len(reqs))
	perLane := make([]int, lanes)
	for _, r := range reqs {
		perLane[r.lane]++
	}
	var last time.Duration
	if len(reqs) > 0 {
		last = reqs[len(reqs)-1].at
	}
	deadline := t0.Add(last + wait)

	// queued carries request indices to a lane's reader in send order;
	// each is sized to its lane's request count so the pacer never
	// blocks on it.
	queued := make([]chan int, lanes)
	readErr := make([]error, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		queued[l] = make(chan int, perLane[l])
		c.conns[l].SetReadDeadline(deadline)
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			readErr[l] = readReplies(c.rd[l], queued[l], perLane[l], reqs, replies, stamps)
		}(l)
	}

	writeErr := c.send(reqs, t0, queued, sent, stamps)
	wg.Wait()
	for l := range c.conns {
		c.conns[l].SetReadDeadline(time.Time{})
	}
	if writeErr != nil {
		return replies, sent, writeErr
	}
	for _, e := range readErr {
		if e != nil {
			return replies, sent, e
		}
	}
	return replies, sent, nil
}

// send is the pacing loop. On each wake-up it writes every request due
// by now, one write per connection, then sleeps until the next due
// time. A sleep per request instead would add the sleep's wake-up delay
// to every request of a burst that falls due together.
func (c *client) send(reqs []wireReq, t0 time.Time, queued []chan int, sent []time.Time, stamps *loopStamps) error {
	defer precisePacing()()
	bufs := make([][]byte, len(c.conns))
	idx := make([][]int, len(c.conns))
	for i := 0; i < len(reqs); {
		now := time.Now()
		if due := t0.Add(reqs[i].at); due.After(now) {
			sleepFor(due.Sub(now))
			continue
		}
		for l := range bufs {
			bufs[l], idx[l] = bufs[l][:0], idx[l][:0]
		}
		for ; i < len(reqs) && !t0.Add(reqs[i].at).After(now); i++ {
			l := reqs[i].lane
			if stamps != nil {
				stamps.encStart[i] = time.Now()
				b, _ := json.Marshal(&reqs[i].req)
				bufs[l] = append(append(bufs[l], b...), '\n')
				stamps.encEnd[i] = time.Now()
			} else {
				bufs[l] = append(bufs[l], reqs[i].line...)
			}
			idx[l] = append(idx[l], i)
		}
		for l, b := range bufs {
			if len(b) == 0 {
				continue
			}
			at := time.Now()
			for _, k := range idx[l] {
				queued[l] <- k
				sent[k] = at
			}
			if _, err := c.conns[l].Write(b); err != nil {
				return fmt.Errorf("lane %d write: %w", l, err)
			}
		}
	}
	return nil
}

// readReplies reads one lane's replies, which the server returns in
// request order, and matches each to the request the pacer queued.
func readReplies(rd *bufio.Reader, queued <-chan int, n int, reqs []wireReq, replies []reply, stamps *loopStamps) error {
	for got := 0; got < n; got++ {
		line, err := rd.ReadBytes('\n')
		at := time.Now()
		if err != nil {
			return fmt.Errorf("after %d of %d replies: %w", got, n, err)
		}
		k := <-queued
		var resp serve.Response
		if err := json.Unmarshal(line, &resp); err != nil {
			return fmt.Errorf("reply %d: %w", got, err)
		}
		if resp.ID != reqs[k].id {
			return fmt.Errorf("reply id %q where %q was next", resp.ID, reqs[k].id)
		}
		replies[k] = reply{answered: true, at: at, ok: resp.OK, code: resp.Code}
		if stamps != nil {
			stamps.decEnd[k] = time.Now()
		}
	}
	return nil
}

// knownCodes are the ErrCodes the wire protocol defines.
var knownCodes = map[serve.ErrCode]bool{
	serve.CodeOverloaded: true, serve.CodeQuarantined: true, serve.CodeDraining: true,
	serve.CodeDeadline: true, serve.CodeAborted: true, serve.CodeDevicePanic: true,
	serve.CodeBootFailed: true, serve.CodeUnknownDevice: true, serve.CodeBadRequest: true,
}

// bootFleet launches rchserve and boots every device of the log over
// the pipelined connections. It returns the set-up time: from launch
// until the last device is resident.
func bootFleet(e *env, boots []wireReq) (*server, *client, time.Duration, error) {
	srv, err := startServer(e.path("rchserve"), e.work, fmt.Sprintf("-shards=%d", fleetShards))
	if err != nil {
		return nil, nil, 0, err
	}
	cl, err := dialClient(srv.addr, fleetConns)
	if err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	replies, _, err := cl.openLoop(boots, time.Now(), 30*time.Second, nil)
	var last time.Time
	for _, rp := range replies {
		if err == nil && !rp.ok {
			err = fmt.Errorf("boot refused: %s", rp.code)
		}
		if rp.at.After(last) {
			last = rp.at
		}
	}
	if err != nil {
		cl.close()
		srv.stop()
		return nil, nil, 0, fmt.Errorf("boot fleet: %w", err)
	}
	return srv, cl, last.Sub(srv.started), nil
}

// stopClean drains a server with SIGTERM and requires exit status 0.
func stopClean(srv *server) (stopped, error) {
	st, err := srv.stop()
	if err == nil && st.code != 0 {
		err = fmt.Errorf("rchserve exited %d on SIGTERM, want a clean drain: %s", st.code, lastLine(st.log))
	}
	return st, err
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// fleetRun is one open-loop replay's outcome.
type fleetRun struct {
	sent, answered, ok int
	// lat, flip and burst hold each day's latencies, timed from the due
	// time, of the requests answered OK.
	lat, flip, burst [][]time.Duration
	late             []time.Duration
	window           time.Duration
	badCodes         []string
	panics           int
}

// judge times every reply from its due time and tallies the outcome.
func judge(drives []wireReq, replies []reply, sent []time.Time, t0 time.Time, days int) fleetRun {
	fr := fleetRun{sent: len(drives), lat: make([][]time.Duration, days),
		flip: make([][]time.Duration, days), burst: make([][]time.Duration, days)}
	for i, rp := range replies {
		due := t0.Add(drives[i].at)
		if !sent[i].IsZero() {
			fr.late = append(fr.late, sent[i].Sub(due))
		}
		if !rp.answered {
			continue
		}
		fr.answered++
		if w := rp.at.Sub(t0); w > fr.window {
			fr.window = w
		}
		if !rp.ok {
			if !knownCodes[rp.code] {
				fr.badCodes = append(fr.badCodes, string(rp.code))
			}
			if rp.code == serve.CodeDevicePanic {
				fr.panics++
			}
			continue
		}
		fr.ok++
		d, day := rp.at.Sub(due), drives[i].day
		fr.lat[day] = append(fr.lat[day], d)
		if drives[i].flip {
			fr.flip[day] = append(fr.flip[day], d)
		} else {
			fr.burst[day] = append(fr.burst[day], d)
		}
	}
	return fr
}

// dayMedian returns the median over days of each day's median latency
// in milliseconds. A stall of the shared box lands in some days and not
// others, so it is steadier than the median over the whole run.
func dayMedian(days [][]time.Duration) float64 {
	var p50s []float64
	for _, d := range days {
		p50s = append(p50s, summarize(ms(d)).P50)
	}
	return median(p50s)
}

// pooled summarizes every day's latencies together, in milliseconds;
// a day alone is too few samples to support a p99.
func pooled(days [][]time.Duration) timing {
	var all []time.Duration
	for _, d := range days {
		all = append(all, d...)
	}
	return summarize(ms(all))
}

// runFleet measures fleet-diurnal end to end against rchserve.
func runFleet(e *env, r *report) error {
	days := fleetDays(e.seed, e.seconds)
	boots, drives := fleetRequests(days, fleetConns)
	encodeAll(boots)
	encodeAll(drives)

	// Set up several times; the last fleet stays up for the replay.
	var setups []float64
	var srv *server
	var cl *client
	for k := 0; k < fleetSetups; k++ {
		s, c, d, err := bootFleet(e, boots)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if k == fleetSetups-1 {
			srv, cl = s, c
			break
		}
		c.close()
		if _, err := stopClean(s); err != nil {
			return err
		}
	}

	t0 := time.Now().Add(20 * time.Millisecond)
	selfCPU := processCPU()
	replies, sent, loopErr := cl.openLoop(drives, t0, 30*time.Second, nil)
	selfCPU = processCPU() - selfCPU
	counters, statsErr := cl.stats("serve_requests_total", "serve_device_panics_total")
	cl.close()
	st, stopErr := stopClean(srv)
	if loopErr != nil {
		return fmt.Errorf("open loop: %w", loopErr)
	}
	if statsErr != nil {
		return statsErr
	}
	fr := judge(drives, replies, sent, t0, len(days))
	r.Attempted = int64(fr.sent)
	r.Failed = int64(fr.sent - fr.ok)

	p50 := dayMedian(fr.lat)
	late := summarize(ms(fr.late))
	want := int64(len(boots) + len(drives))
	r.check("one reply per request", fr.answered == fr.sent, "%d of %d drive requests answered", fr.answered, fr.sent)
	r.check("only known error codes", len(fr.badCodes) == 0, "unknown codes %v", fr.badCodes)
	r.check("no device_panic", fr.panics == 0 && counters["serve_device_panics_total"] == 0,
		"%d panic replies, serve_device_panics_total=%d", fr.panics, counters["serve_device_panics_total"])
	r.check("serve_requests_total = sent", counters["serve_requests_total"] == want,
		"server counted %d, client sent %d (%d boots + %d drives)", counters["serve_requests_total"], want, len(boots), len(drives))
	r.check("clean drain on SIGTERM", stopErr == nil, "%v", stopErr)
	r.check("pacing within bound", late.P50 <= lateShare*p50,
		"generator median lateness %.4f ms, bound %.2f x p50 %.4f ms", late.P50, lateShare, p50)

	all, flip, burst := pooled(fr.lat), pooled(fr.flip), pooled(fr.burst)
	r.metric("ops_per_s", "1/s", float64(fr.ok)/fr.window.Seconds())
	r.metric("cpu_us_per_op", "us", float64(st.cpu)/float64(time.Microsecond)/float64(fr.sent))
	r.metric("max_rss_mb", "MB", float64(st.maxRSS)/(1<<20))
	r.metric("setup_s", "s", median(setups))
	r.info("p50_ms", "ms", p50)
	r.info("p90_ms", "ms", all.P90)
	r.info("p99_ms", "ms", all.P99)
	r.info("flip_p50_ms", "ms", dayMedian(fr.flip))
	r.info("flip_p90_ms", "ms", flip.P90)
	r.info("flip_p99_ms", "ms", flip.P99)
	r.info("flip_samples", "count", float64(flip.N))
	r.info("burst_p50_ms", "ms", dayMedian(fr.burst))
	r.info("burst_p90_ms", "ms", burst.P90)
	r.info("burst_p99_ms", "ms", burst.P99)
	r.info("burst_samples", "count", float64(burst.N))
	r.info("driver.late_p50_ms", "ms", late.P50)
	r.info("driver.late_p99_ms", "ms", late.P99)
	r.info("driver.cpu_us_per_op", "us", float64(selfCPU)/float64(time.Microsecond)/float64(fr.sent))
	r.info("fleet.days", "count", float64(len(days)))
	r.info("offered_mean_per_s", "1/s", float64(len(drives))/drives[len(drives)-1].at.Seconds())
	return nil
}

// mix is SplitMix64's finaliser over a seed and an index.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
