package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/multirail"
)

// waitDeadline bounds every Wait the harness makes. The engine's Wait
// has no timeout of its own and a timed wait would allocate a timer per
// message, so the deadline is enforced from the side: each goroutine
// publishes when it entered a Wait and a watchdog trips when any of them
// has been inside one for longer than this.
var waitDeadline = 5 * time.Second

// fullCheckEvery is how often a measured message gets a full byte
// compare on top of the per-message stamp check.
const fullCheckEvery = 64

// corruptIndex is the message the -corrupt test hook damages.
const corruptIndex = 9

// flow is one tagged stream (sender on node 0, receiver on node 1) or
// one ping-pong pair (caller on node 0, echo on node 1). All buffers and
// request slots are allocated up front: the measured loops allocate
// nothing, so allocs_per_msg is the engine's.
type flow struct {
	tag     uint32
	pay     *payload
	seq     uint64   // next sequence number; continues across phases
	send    [][]byte // stream: one per window slot; ping-pong: the ping and the pong
	recv    [][]byte // stream: window+1, so a receive is re-posted before the last one is verified; ping-pong: the echo's and the caller's
	scratch []byte
	sendReq []*multirail.SendRequest
	sendSeq []uint64 // sequence number of the message in each send slot
	// inflight is the sequence number each send slot's message carries
	// until its receiver has checked it (then slotFree): a message that
	// arrives twice, or that nobody sent, fails the check.
	inflight []atomic.Uint64
	irecvAt  [][2]time.Duration // traced passes: when each posted receive's Irecv call began and ended
	// overtaken counts messages delivered after a later one of the same
	// tag — allowed by the engine's matching contract, reported for the
	// reader.
	overtaken int64
	recvReq   []*multirail.RecvRequest
	postAt    []atomic.Int64 // stream: cluster-clock post time of the message in each window slot
	final     atomic.Uint64  // ping-pong: sequence number + 1 of the last round
	sent      atomic.Int64   // messages posted this phase
	done      atomic.Int64   // messages completed and checked this phase
	bad       atomic.Int64   // payload mismatches and Wait errors this phase
	rec       recorder
}

// recorder keeps one goroutine's latency samples in completion order,
// with the sample index at every window boundary crossed.
type recorder struct {
	lat    []int64
	bounds []int
	next   time.Duration
	window time.Duration
	last   time.Duration // cluster-clock time of the latest sample
}

func (r *recorder) reset(start, window time.Duration, capHint int) {
	if cap(r.lat) < capHint {
		r.lat = make([]int64, capHint)
		for i := 0; i < len(r.lat); i += 512 {
			r.lat[i] = 1 // fault the pages in now, not inside the measured run
		}
	}
	if r.bounds == nil {
		r.bounds = make([]int, 0, 128)
	}
	r.lat, r.bounds = r.lat[:0], r.bounds[:0]
	r.next, r.window, r.last = start+window, window, start
}

func (r *recorder) add(now time.Duration, lat time.Duration) {
	for now >= r.next {
		r.bounds = append(r.bounds, len(r.lat))
		r.next += r.window
	}
	r.lat = append(r.lat, int64(lat))
	r.last = now
}

// phase is one stretch of traffic: the count-based warm-up or the timed
// measured run.
type phase struct {
	count      int           // messages per flow; 0 = run until deadline
	start      time.Duration // cluster clock
	deadline   time.Duration
	window     time.Duration
	fullVerify bool
	capHint    int  // latency samples to make room for, per flow
	corrupt    bool // test hook: damage the tenth message of every flow after stamping it
}

// harness drives one workload's traffic over one cluster.
type harness struct {
	w     *workload
	c     *multirail.Cluster
	flows []*flow
	spans *spanLog // nil unless this is a traced pass

	watch   []atomic.Int64 // per goroutine: cluster-clock time it entered a Wait, 0 outside
	abort   chan struct{}
	aborted atomic.Bool
	hungAt  string // goroutine dump written by the watchdog, if it tripped
}

// newHarness derives payload bytes, verification offsets and flow tags
// from the seed; the engine sees only the generated buffers.
func newHarness(w *workload, c *multirail.Cluster, seed int64) *harness {
	rng := rand.New(rand.NewSource(seed))
	h := &harness{w: w, c: c, abort: make(chan struct{})}
	h.watch = make([]atomic.Int64, 2*w.flows)
	tags := map[uint32]bool{}
	for i := 0; i < w.flows; i++ {
		tag := rng.Uint32()
		for tags[tag] {
			tag = rng.Uint32()
		}
		tags[tag] = true
		f := &flow{tag: tag, pay: newPayload(rng, w.size)}
		f.scratch = make([]byte, w.size)
		n := max(w.window, 2)
		for j := 0; j < n; j++ {
			f.send = append(f.send, f.pay.newBuf())
		}
		for j := 0; j < n+1; j++ {
			f.recv = append(f.recv, make([]byte, w.size))
		}
		f.sendReq = make([]*multirail.SendRequest, n)
		f.sendSeq = make([]uint64, n)
		f.inflight = make([]atomic.Uint64, n)
		f.irecvAt = make([][2]time.Duration, n)
		f.recvReq = make([]*multirail.RecvRequest, n)
		f.postAt = make([]atomic.Int64, n)
		f.seq = uint64(rng.Uint32()) // seeded starting sequence number
		h.flows = append(h.flows, f)
	}
	return h
}

// enter and leave bracket every Wait for the watchdog.
func (h *harness) enter(slot int) { h.watch[slot].Store(int64(h.c.Now()) | 1) }
func (h *harness) leave(slot int) { h.watch[slot].Store(0) }

// stop ends the phase early; the watchdog and an unreadable message
// (whose send slot cannot be returned) call it.
func (h *harness) stop() {
	if h.aborted.CompareAndSwap(false, true) {
		close(h.abort)
	}
}

// A message's stamp is its sequence number with its sender's slot in the
// top byte. The slot is how the receiver finds the message's post time
// and returns the right buffer to the sender: the engine matches one
// (source, tag) pair in completion order, so messages of one window may
// overtake each other and the receiver cannot infer the slot from the
// order of arrival.
const (
	slotShift = 56
	seqMask   = 1<<slotShift - 1
	slotFree  = ^uint64(0)
)

// post stamps the buffer in send slot i with sequence number seq and
// marks the slot in flight.
func (f *flow) post(i int, seq uint64, corrupt bool) {
	f.pay.stamp(f.send[i], uint64(i)<<slotShift|seq)
	if corrupt {
		f.send[i][len(f.send[i])-1] ^= 0xff
	}
	f.inflight[i].Store(seq)
	f.sendSeq[i] = seq
}

// check verifies one received message — length, error, that it is a
// message in flight and not yet delivered, its sequence number at every
// stamp position, and when full is set every byte. It returns the send
// slot the message came from (-1 if the message does not say), its
// sequence number and the verdict.
func (f *flow) check(buf []byte, n int, err error, full bool) (slot int, seq uint64, ok bool) {
	v := f.pay.head(buf)
	slot, seq = int(v>>slotShift), v&seqMask
	if slot >= len(f.inflight) {
		slot = -1
	}
	ok = err == nil && n == len(buf) && slot >= 0 &&
		f.inflight[slot].CompareAndSwap(seq, slotFree) && f.pay.stampsOK(buf, v)
	if ok && full {
		ok = f.pay.fullOK(buf, f.scratch, v)
	}
	if !ok {
		f.bad.Add(1)
	}
	f.done.Add(1)
	return slot, seq, ok
}

// streamRecv is a stream's receiver. It keeps `window` receives posted
// and hands the sender one send slot per posted receive, so at most
// `window` messages are in flight end to end. It also owns the clock:
// at the deadline (or the count) it stops re-posting and closes the
// credit channel, which ends the sender after exactly as many messages
// as receives were posted.
func (h *harness) streamRecv(ctx multirail.Ctx, f *flow, ph *phase, credits chan int, slot int) {
	node, W := h.c.Node(1), h.w.window
	posted, completed := 0, 0
	post := func(sendSlot int) {
		t0 := h.spans.now()
		f.recvReq[posted%W] = node.Irecv(0, f.tag, f.recv[posted%(W+1)])
		if h.spans != nil {
			f.irecvAt[posted%W] = [2]time.Duration{t0, h.spans.now()}
		}
		posted++
		credits <- sendSlot
	}
	for posted < W && (ph.count == 0 || posted < ph.count) {
		post(posted)
	}
	frozen := false
	freeze := func() { frozen = true; close(credits) }
	if ph.count != 0 && posted >= ph.count {
		freeze()
	}
	var newest uint64
	for completed < posted && !h.aborted.Load() {
		s := completed
		h.enter(slot)
		t0 := h.spans.now()
		n, err := f.recvReq[s%W].Wait(ctx)
		now := h.c.Now()
		h.leave(slot)
		completed++
		// The stamp check comes first because it says which send slot to
		// hand back; the full compare runs after the re-post, on the
		// buffer the spare has replaced.
		buf := f.recv[s%(W+1)]
		from, seq, ok := f.check(buf, n, err, false)
		if from < 0 {
			h.stop()
			break
		}
		if seq < newest {
			f.overtaken++
		}
		newest = max(newest, seq)
		f.rec.add(now, now-time.Duration(f.postAt[from].Load()))
		if h.spans != nil {
			h.spans.add(spanIrecv, 1, f.tag, seq, f.irecvAt[s%W][0], f.irecvAt[s%W][1])
			h.spans.add(spanWaitRecv, 1, f.tag, seq, t0, now)
		}
		if !frozen {
			if (ph.count != 0 && posted >= ph.count) || (ph.count == 0 && now >= ph.deadline) {
				freeze()
			} else {
				post(from)
			}
		}
		if ok && (ph.fullVerify || s%fullCheckEvery == 0) && !f.pay.fullOK(buf, f.scratch, f.pay.head(buf)) {
			f.bad.Add(1)
		}
	}
	if !frozen {
		freeze()
	}
}

// streamSend is a stream's sender: one message per credit, each send
// buffer reused only after its previous Isend completed locally.
func (h *harness) streamSend(ctx multirail.Ctx, f *flow, ph *phase, credits chan int, slot int) {
	node := h.c.Node(0)
	for sent := 0; ; sent++ {
		var i int
		var ok bool
		select {
		case i, ok = <-credits:
		case <-h.abort:
			return
		}
		if !ok {
			break
		}
		if f.sendReq[i] != nil {
			h.waitSend(ctx, f, i, 0, slot)
		}
		f.post(i, f.seq+uint64(sent), ph.corrupt && sent == corruptIndex)
		t0 := h.c.Now()
		f.postAt[i].Store(int64(t0))
		f.sendReq[i] = node.Isend(1, f.tag, f.send[i])
		h.spans.addSend(0, f.tag, f.sendSeq[i], f.sendReq[i].MsgID(), t0)
		f.sent.Add(1)
	}
	for i, r := range f.sendReq {
		if r != nil && !h.aborted.Load() {
			h.waitSend(ctx, f, i, 0, slot)
		}
	}
}

// waitSend waits for the local completion of the Isend in send slot i
// (posted from `node`) and clears the slot's request.
func (h *harness) waitSend(ctx multirail.Ctx, f *flow, i, node, slot int) {
	h.enter(slot)
	t0 := h.spans.now()
	f.sendReq[i].Wait(ctx)
	h.leave(slot)
	h.spans.add(spanWaitSend, node, f.tag, f.sendSeq[i], t0, h.spans.now())
	f.sendReq[i] = nil
}

// Ping-pong slots: the ping travels in slot 0, the pong in slot 1.
const (
	pingSlot = 0
	pongSlot = 1
)

// pingCaller is the ping-pong's one caller: post the reply receive, send
// the ping, wait for the reply. A sample is RTT/2.
func (h *harness) pingCaller(ctx multirail.Ctx, f *flow, ph *phase, slot int) {
	node := h.c.Node(0)
	now := h.c.Now()
	for i := 0; !h.aborted.Load(); i++ {
		seq := f.seq + uint64(i)
		last := (ph.count != 0 && i == ph.count-1) || (ph.count == 0 && now >= ph.deadline)
		if last {
			f.final.Store(seq + 1)
		}
		ts := h.spans.now()
		rr := node.Irecv(1, f.tag, f.recv[pongSlot])
		h.spans.add(spanIrecv, 0, f.tag, seq, ts, h.spans.now())
		f.post(pingSlot, seq, ph.corrupt && i == corruptIndex)
		t0 := h.c.Now()
		f.sendReq[pingSlot] = node.Isend(1, f.tag, f.send[pingSlot])
		h.spans.addSend(0, f.tag, seq, f.sendReq[pingSlot].MsgID(), t0)
		f.sent.Add(2)
		h.enter(slot)
		n, err := rr.Wait(ctx)
		now = h.c.Now()
		h.leave(slot)
		h.spans.add(spanWaitRecv, 0, f.tag, seq, t0, now)
		h.waitSend(ctx, f, pingSlot, 0, slot)
		f.rec.add(now, (now-t0)/2)
		f.check(f.recv[pongSlot], n, err, ph.fullVerify || i%fullCheckEvery == 0)
		if last {
			return
		}
	}
}

// pingEcho answers every ping with a pong carrying the same sequence
// number, in the blocking receive-then-send loop MPI-style codes write.
func (h *harness) pingEcho(ctx multirail.Ctx, f *flow, ph *phase, slot int) {
	node := h.c.Node(1)
	for i := 0; !h.aborted.Load(); i++ {
		seq := f.seq + uint64(i)
		ts := h.spans.now()
		rr := node.Irecv(0, f.tag, f.recv[pingSlot])
		tw := h.spans.now()
		h.spans.add(spanIrecv, 1, f.tag, seq, ts, tw)
		h.enter(slot)
		n, err := rr.Wait(ctx)
		h.leave(slot)
		h.spans.add(spanWaitRecv, 1, f.tag, seq, tw, h.spans.now())
		f.check(f.recv[pingSlot], n, err, ph.fullVerify || i%fullCheckEvery == 0)
		f.post(pongSlot, seq, false)
		t0 := h.c.Now()
		f.sendReq[pongSlot] = node.Isend(0, f.tag, f.send[pongSlot])
		h.spans.addSend(1, f.tag, seq, f.sendReq[pongSlot].MsgID(), t0)
		h.waitSend(ctx, f, pongSlot, 1, slot)
		if f.final.Load() == seq+1 {
			return
		}
	}
}

// runPhase runs one phase on every flow and reports whether the
// watchdog had to stop it. ph.start and ph.deadline are set here.
func (h *harness) runPhase(ph *phase, dur time.Duration) bool {
	var wg sync.WaitGroup
	spawn := func(fn func(multirail.Ctx)) {
		wg.Add(1)
		h.c.Go("bench", func(ctx multirail.Ctx) {
			defer wg.Done()
			fn(ctx)
		})
	}
	ph.start = h.c.Now() + time.Millisecond // goroutines start inside window 0
	ph.deadline = ph.start + dur
	for i, f := range h.flows {
		f.sent.Store(0)
		f.done.Store(0)
		f.bad.Store(0)
		f.overtaken = 0
		f.rec.reset(ph.start, ph.window, ph.capHint)
		slot := 2 * i
		if h.w.window == 0 {
			f.final.Store(0)
			spawn(func(ctx multirail.Ctx) { h.pingEcho(ctx, f, ph, slot+1) })
			spawn(func(ctx multirail.Ctx) { h.pingCaller(ctx, f, ph, slot) })
			continue
		}
		// One credit per posted receive, never more than window of them.
		credits := make(chan int, h.w.window)
		spawn(func(ctx multirail.Ctx) { h.streamRecv(ctx, f, ph, credits, slot+1) })
		spawn(func(ctx multirail.Ctx) { h.streamSend(ctx, f, ph, credits, slot) })
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		h.watchdog(stopWatch)
	}()
	select {
	case <-done:
	case <-h.abort:
		// Goroutines that are not themselves stuck see the abort flag
		// and leave; the stuck ones stay parked in Wait for good.
		select {
		case <-done:
		case <-time.After(time.Second):
		}
	}
	close(stopWatch)
	<-watchDone
	for _, f := range h.flows {
		f.seq += uint64(f.sent.Load() / int64(h.w.msgsPerSample()))
	}
	return h.aborted.Load()
}

// watchdog trips when any goroutine has sat in one Wait for longer than
// waitDeadline: it dumps every goroutine's stack under results/ and
// aborts the phase.
func (h *harness) watchdog(stop chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := int64(h.c.Now())
		for i := range h.watch {
			if since := h.watch[i].Load(); since != 0 && now-since > int64(waitDeadline) {
				h.hungAt = dumpGoroutines(h.w.name)
				h.stop()
				return
			}
		}
	}
}

// dumpGoroutines writes every goroutine's stack to the results
// directory and returns the file's path ("" if it cannot be written).
func dumpGoroutines(name string) string {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(resultsDir, fmt.Sprintf("hang-%s.txt", name))
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	pprof.Lookup("goroutine").WriteTo(f, 2)
	return path
}

// totals sums the per-flow counters of the last phase. Operations still
// unfinished when the watchdog stopped the phase count as failed.
func (h *harness) totals() (attempted, failed int64) {
	for _, f := range h.flows {
		sent, done := f.sent.Load(), f.done.Load()
		attempted += sent
		failed += f.bad.Load() + max(sent-done, 0)
	}
	return attempted, failed
}

// usage is a reading of the process's resource counters and the
// engine's and rails' own counters, taken while no traffic flows.
type usage struct {
	at      time.Duration
	cpu     time.Duration
	mallocs uint64
	eng     [2]multirail.EngineStats
	rails   [2][]multirail.FabricStats
}

func readUsage(c *multirail.Cluster) usage {
	var ru syscall.Rusage
	var ms runtime.MemStats
	u := usage{at: c.Now()}
	for n := 0; n < 2; n++ {
		u.eng[n] = c.EngineStats(n)
		u.rails[n] = c.RailStats(n)
	}
	runtime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

// windowStats turns the flows' recorders into per-window values: median
// and tail latency (ns) and completed messages per second. Only windows
// every flow completed are used. tail is the percentile rank actually
// reported — 0.99 unless a window held fewer than 1000 samples.
func (h *harness) windowStats(ph *phase) (p50, p99, rate []float64, samples int, tail float64) {
	windows := -1
	for _, f := range h.flows {
		if windows < 0 || len(f.rec.bounds) < windows {
			windows = len(f.rec.bounds)
		}
	}
	tail = 0.99
	var pool []int64
	for k := 0; k < windows; k++ {
		pool = pool[:0]
		for _, f := range h.flows {
			lo := 0
			if k > 0 {
				lo = f.rec.bounds[k-1]
			}
			pool = append(pool, f.rec.lat[lo:f.rec.bounds[k]]...)
		}
		if len(pool) == 0 {
			continue
		}
		slices.Sort(pool)
		t := tailRank(len(pool), 0.99)
		tail = min(tail, t)
		p50 = append(p50, float64(rankOf(pool, 0.5)))
		p99 = append(p99, float64(rankOf(pool, t)))
		rate = append(rate, float64(len(pool)*h.w.msgsPerSample())/ph.window.Seconds())
		samples += len(pool)
	}
	return p50, p99, rate, samples, tail
}
