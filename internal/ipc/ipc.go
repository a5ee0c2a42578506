// Package ipc simulates the binder boundary between an app process and the
// system server. Every lifecycle command the ATMS issues and every
// activity-start request the activity thread makes crosses this boundary,
// paying the cost model's per-hop latency — the reason even RCHDroid's
// coin-flip path has a latency floor.
package ipc

import (
	"time"

	"rchdroid/internal/looper"
	"rchdroid/internal/sim"
)

// Endpoint is one side of the binder boundary: a named looper that
// receives transactions.
type Endpoint struct {
	Name   string
	Looper *looper.Looper
}

// NewEndpoint wraps a looper as a transaction target.
func NewEndpoint(name string, l *looper.Looper) *Endpoint {
	return &Endpoint{Name: name, Looper: l}
}

// Bus carries one-way transactions between endpoints. Android binder calls
// in the lifecycle path are oneway (async) transactions; request/response
// pairs are modelled as two one-way hops, which is also how the paper's
// latency decomposes (activity thread → ATMS → activity thread).
type Bus struct {
	hop   time.Duration
	count uint64
	bytes int64
}

// NewBus returns a bus whose every hop costs hop of virtual latency.
func NewBus(hop time.Duration) *Bus {
	return &Bus{hop: hop}
}

// Clone returns an independent bus with the same hop latency and
// accumulated transaction/byte counters, for the device fork facility.
func (b *Bus) Clone() *Bus {
	cp := *b
	return &cp
}

// HopLatency returns the per-transaction latency.
func (b *Bus) HopLatency() time.Duration { return b.hop }

// Transactions returns how many transactions have been sent.
func (b *Bus) Transactions() uint64 { return b.count }

// BytesTransferred returns the cumulative payload size accounted so far.
func (b *Bus) BytesTransferred() int64 { return b.bytes }

// Transact delivers a one-way transaction to the endpoint: after the hop
// latency, fn runs on the endpoint's looper with the given execution cost.
// payloadBytes sizes the parcel for accounting (pass 0 when irrelevant).
// A panic escaping fn is not an app crash: it propagates out of the
// scheduler, as a framework bug should.
func (b *Bus) Transact(to *Endpoint, name string, payloadBytes int64, handleCost time.Duration, fn func()) {
	b.count++
	b.bytes += payloadBytes
	to.Looper.PostDelayed(b.hop, "binder:"+to.Name+":"+name, handleCost, fn)
}

// TransactAt delivers a transaction like Transact but delays dispatch
// until at least `at` plus the hop latency, for callers replaying a
// scripted timeline.
func (b *Bus) TransactAt(at sim.Time, to *Endpoint, name string, payloadBytes int64, handleCost time.Duration, fn func()) {
	b.count++
	b.bytes += payloadBytes
	now := to.Looper.Scheduler().Now()
	delay := at.Sub(now)
	if delay < 0 {
		delay = 0
	}
	to.Looper.PostDelayed(delay+b.hop, "binder:"+to.Name+":"+name, handleCost, fn)
}
