package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net"
	"testing"
	"time"

	"rchdroid/internal/serve"
)

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := summarize(xs).P99; !math.IsNaN(p) {
		t.Errorf("p99 of 999 samples = %v, want NaN: only 9 samples lie beyond it", p)
	}
	xs = append(xs, 1000)
	if tm := summarize(xs); tm.P50 != 500 || tm.P90 != 900 || tm.P99 != 990 {
		t.Errorf("summarize(1..1000) = %+v, want nearest-rank p50=500 p90=900 p99=990", tm)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "parent", Start: at(0), End: at(100), Parent: -1},
		{Name: "a", Start: at(10), End: at(40), Parent: 0},
		{Name: "b", Start: at(30), End: at(60), Parent: 0},  // overlaps a
		{Name: "c", Start: at(90), End: at(120), Parent: 0}, // runs past the parent
		{Name: "a.child", Start: at(15), End: at(35), Parent: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{40, 10, 30, 30, 20}
	for i := range want {
		if self[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i]*time.Millisecond)
		}
	}
}

// stallingServer answers each request line in order with an OK reply,
// but holds the reply to request number stallAt for stall. It sends the
// time the stall ended on stalled.
func stallingServer(t *testing.T, stallAt int, stall time.Duration, stalled chan<- time.Time) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for n := 0; sc.Scan(); n++ {
			var req serve.Request
			if json.Unmarshal(sc.Bytes(), &req) != nil {
				return
			}
			if n == stallAt {
				time.Sleep(stall)
				stalled <- time.Now()
			}
			b, _ := json.Marshal(serve.Response{ID: req.ID, OK: true})
			if _, err := conn.Write(append(b, '\n')); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

func TestLatencyIsTimedFromDueTime(t *testing.T) {
	const (
		n       = 40
		gap     = 2 * time.Millisecond
		stallAt = 5
		stall   = 60 * time.Millisecond
	)
	stalled := make(chan time.Time, 1)
	cl, err := dialClient(stallingServer(t, stallAt, stall, stalled), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	reqs := make([]wireReq, n)
	for i := range reqs {
		id := "d" + string(rune('A'+i))
		reqs[i] = wireReq{id: id, at: time.Duration(i) * gap, req: serve.Request{ID: id, Op: serve.OpDrive, Device: "w-000", Kind: serve.KindRotate}}
	}
	encodeAll(reqs)
	t0 := time.Now().Add(10 * time.Millisecond)
	replies, sent, err := cl.openLoop(reqs, t0, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	stallEnd := <-stalled
	fr := judge(reqs, replies, sent, t0, 1)
	if fr.ok != n {
		t.Fatalf("%d of %d replies OK", fr.ok, n)
	}
	carried := 0
	for k := stallAt; k < n; k++ {
		due := t0.Add(reqs[k].at)
		if !due.Before(stallEnd) {
			continue
		}
		carried++
		if lat, floor := fr.lat[0][k], stallEnd.Sub(due); lat < floor {
			t.Errorf("request %d due %v before the stall ended: latency %v, want at least %v", k, floor, lat, floor)
		}
		// Open loop: the stall delays replies, never the sending.
		if late := sent[k].Sub(due); late > stall/2 {
			t.Errorf("request %d sent %v after its due time: the client waited for the stalled reply", k, late)
		}
	}
	if carried < 20 {
		t.Fatalf("only %d requests fell due during the stall; the test did not exercise it", carried)
	}
}

func TestSameSeedSameLog(t *testing.T) {
	encode := func(seed uint64) []byte {
		var buf bytes.Buffer
		for _, lg := range fleetDays(seed, 6) {
			buf.Write(lg.Encode())
		}
		boots, drives := fleetRequests(fleetDays(seed, 6), fleetConns)
		encodeAll(boots)
		encodeAll(drives)
		for _, q := range append(boots, drives...) {
			buf.Write(q.line)
		}
		return buf.Bytes()
	}
	a, b := encode(7), encode(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different logs")
	}
	if bytes.Equal(a, encode(8)) {
		t.Fatal("different seeds generated the same log")
	}
	boots, _ := fleetRequests(fleetDays(7, 6), fleetConns)
	if len(boots) != fleetDevices {
		t.Fatalf("%d boots, want one per device (%d)", len(boots), fleetDevices)
	}
}
