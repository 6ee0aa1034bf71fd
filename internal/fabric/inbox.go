package fabric

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/rt"
)

// Inbox is the half of a Node every fabric shares (see the package doc):
// ID, Health, RecvQ, the sink and the telemetry hook. A fabric's node
// embeds one, calls Init before the node is shared and hands every
// arrived frame to Deliver. SetPlacer is a no-op, which a fabric that
// places bodies (the rail core) overrides. An Inbox initialised without a
// queue is a remote stub, a node another process hosts: ID works, and
// every other method panics.
type Inbox struct {
	id     int
	recvq  rt.Queue
	health Health

	sinkMu sync.RWMutex
	sink   func(*Delivery)

	teleMu sync.RWMutex
	tele   Telemetry
}

// Init sets the node's identity and its delivery queue; a nil recvq makes
// the inbox a remote stub.
func (b *Inbox) Init(id int, recvq rt.Queue, health Health) {
	b.id, b.recvq, b.health = id, recvq, health
}

// Hosted reports whether the node is hosted by this process (not a stub).
func (b *Inbox) Hosted() bool { return b.recvq != nil }

func (b *Inbox) mustHost() {
	if b.recvq == nil {
		panic(fmt.Sprintf("fabric: node %d is not hosted by this process", b.id))
	}
}

// ID returns the node's index in the fabric.
func (b *Inbox) ID() int { return b.id }

// RecvQ returns the queue deliveries wait in while no sink is installed.
func (b *Inbox) RecvQ() rt.Queue {
	b.mustHost()
	return b.recvq
}

// Health returns the node's rail-health surface.
func (b *Inbox) Health() Health {
	b.mustHost()
	return b.health
}

// SetSink installs fn as the node's sink, or with nil restores queue
// delivery, as DirectNode documents: what RecvQ holds is drained through
// fn, in order, before any later delivery reaches it.
func (b *Inbox) SetSink(fn func(*Delivery)) {
	b.mustHost()
	b.sinkMu.Lock()
	defer b.sinkMu.Unlock()
	b.sink = fn
	if fn == nil {
		return
	}
	for {
		item, ok := b.recvq.TryPop()
		if !ok {
			return
		}
		if d, isD := item.(*Delivery); isD && d != nil {
			fn(d)
		}
	}
}

// Deliver hands one arrived frame to the sink, or queues it when none is
// installed. The push happens under the sink lock, so it cannot race
// SetSink's drain and strand a frame.
func (b *Inbox) Deliver(d *Delivery) {
	b.sinkMu.RLock()
	defer b.sinkMu.RUnlock()
	if b.sink != nil {
		b.sink(d)
		return
	}
	b.recvq.Push(d)
}

// SetTelemetry installs the node's telemetry sink: every transfer its
// fabric reports through Observe reaches it. SetTelemetry(nil) detaches it.
func (b *Inbox) SetTelemetry(t Telemetry) {
	b.mustHost()
	b.teleMu.Lock()
	b.tele = t
	b.teleMu.Unlock()
}

// Observe reports one completed transfer of the node's rail to the
// telemetry sink, if one is installed; a transfer of no duration measures
// nothing and is dropped.
func (b *Inbox) Observe(peer, rail, bytes int, d time.Duration) {
	if d <= 0 {
		return
	}
	b.teleMu.RLock()
	t := b.tele
	b.teleMu.RUnlock()
	if t != nil {
		t.ObserveTransfer(peer, rail, bytes, d)
	}
}

// SetPlacer is a no-op: a fabric that moves every frame whole hands a
// chunk to the sink as one contiguous delivery, and the engine copies it
// into place from there.
func (b *Inbox) SetPlacer(Placer) {}
