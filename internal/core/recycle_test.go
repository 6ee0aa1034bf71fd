package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/railhealth"
	"repro/internal/rt"
	"repro/internal/wire"
)

// poisonRecycled switches the poison-on-recycle hook on for one test: a
// buffer read after its recycle shows as a payload of 0xDB bytes.
func poisonRecycled(t *testing.T) {
	fabric.SetRecyclePoison(true)
	t.Cleanup(func() { fabric.SetRecyclePoison(false) })
}

// stepFabric is a live transport whose link writers the test drives by
// hand. It keeps the two properties of livenet and shmnet that frame
// recycling depends on: a queued frame aliases the sender's memory (a
// short head excepted) until it is written, and a written frame reaches
// the receiver as a copy in a pooled receive frame. step writes one
// queued frame; until then it sits in the rail's queue, which is how a
// test holds a replay back while the original's ack overtakes it. A rail
// with a limit is a backed-up link: it holds that many unwritten frames,
// a sender with one more waits for a step, and TrySend refuses.
type stepFabric struct {
	env   *rt.LiveEnv
	nodes []*stepNode
}

type stepNode struct {
	fabric.Inbox
	f      *stepFabric
	rails  []*stepRail
	frames fabric.FramePool
}

type stepRail struct {
	n   *stepNode
	idx int

	mu    sync.Mutex
	queue []stepFrame
	limit int        // unwritten frames the link holds; 0 = any number
	room  *sync.Cond // a step made room (L is mu)
}

type stepFrame struct {
	to   int
	head fabric.Head
	body []byte
}

func newStepFabric(env *rt.LiveEnv, rails int) *stepFabric {
	f := &stepFabric{env: env}
	for i := 0; i < 2; i++ {
		n := &stepNode{f: f}
		n.Init(i, env.NewQueue(), railhealth.New(env, i, rails))
		for r := 0; r < rails; r++ {
			rl := &stepRail{n: n, idx: r}
			rl.room = sync.NewCond(&rl.mu)
			n.rails = append(n.rails, rl)
		}
		f.nodes = append(f.nodes, n)
	}
	return f
}

func (n *stepNode) NumRails() int          { return len(n.rails) }
func (n *stepNode) Rail(i int) fabric.Rail { return n.rails[i] }
func (n *stepNode) Cores() int             { return 2 }

// deliver hands data to the node's engine the way a reader does: copied
// into a frame of the node's pool. It returns the frame so a test can
// watch it come back.
func (n *stepNode) deliver(from, rail int, data []byte) *fabric.Delivery {
	d := n.frames.Get(len(data))
	copy(d.Data, data)
	d.From, d.Rail = from, rail
	n.Deliver(d)
	return d
}

func (r *stepRail) Index() int                             { return r.idx }
func (r *stepRail) Caps() fabric.Caps                      { return fabric.Caps{Kind: "step", EagerMax: 32 << 10} }
func (r *stepRail) IdleAt(now time.Duration) time.Duration { return now }
func (r *stepRail) Busy() bool                             { return false }
func (r *stepRail) State() fabric.RailState                { return r.n.Health().State(r.idx) }
func (r *stepRail) Stats() (s fabric.Stats)                { return }

func (r *stepRail) SendEager(ctx rt.Ctx, to int, data []byte) { r.SendDataV(ctx, to, data, nil, nil) }
func (r *stepRail) SendControl(ctx rt.Ctx, to int, data []byte) {
	r.SendDataV(ctx, to, data, nil, nil)
}
func (r *stepRail) SendData(ctx rt.Ctx, to int, data []byte, done fabric.Completion) {
	r.SendDataV(ctx, to, data, nil, done)
}
func (r *stepRail) SendDataV(_ rt.Ctx, to int, head, body []byte, done fabric.Completion) {
	r.mu.Lock()
	for r.full() {
		r.room.Wait()
	}
	r.queue = append(r.queue, stepFrame{to: to, head: fabric.MakeHead(head), body: body})
	r.mu.Unlock()
	if done != nil {
		done.Fire()
	}
}

// TrySend implements fabric.TrySender: queue the frame unless the link is
// backed up.
func (r *stepRail) TrySend(to int, data []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full() {
		return false
	}
	r.queue = append(r.queue, stepFrame{to: to, head: fabric.MakeHead(data)})
	return true
}

// full reports a backed-up link; the caller holds r.mu.
func (r *stepRail) full() bool { return r.limit > 0 && len(r.queue) >= r.limit }

// queued waits until the rail holds at least n unwritten frames.
func (r *stepRail) queued(t *testing.T, n int) {
	t.Helper()
	eventually(t, "a frame to be queued on the rail", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.queue) >= n
	})
}

// step writes the rail's oldest queued frame — reading the sender's
// memory now — and delivers it. It returns the bytes that went out.
func (r *stepRail) step(t *testing.T) []byte {
	t.Helper()
	r.queued(t, 1)
	r.mu.Lock()
	fr := r.queue[0]
	r.queue = r.queue[1:]
	r.room.Broadcast()
	r.mu.Unlock()
	wire := append(append([]byte(nil), fr.head.Bytes()...), fr.body...)
	r.n.f.nodes[fr.to].deliver(r.n.ID(), r.idx, wire)
	return wire
}

// eventually polls cond (engine work runs on pool workers).
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// stepPair builds two recycling engines over a step fabric.
func stepPair(t *testing.T, rails int) (*stepFabric, [2]*Engine) {
	t.Helper()
	env := rt.NewLive()
	f := newStepFabric(env, rails)
	var eng [2]*Engine
	for i := range eng {
		var err error
		eng[i], err = NewEngine(env, f.nodes[i], liveProfiles(t)[:rails], Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !eng[i].recycle {
			t.Fatal("engine over rails that copy every frame (fabric.TrySender) does not recycle frames")
		}
		t.Cleanup(eng[i].Stop)
	}
	return f, eng
}

// matchingKeys counts the keys of every matching table: a key must exist
// only while its queue holds something.
func (e *Engine) matchingKeys() int {
	n := 0
	for i := range e.flows {
		s := &e.flows[i]
		s.mu.Lock()
		n += len(s.recvs.m) + len(s.unexpect.m) + len(s.rdvQueued.m)
		s.mu.Unlock()
	}
	return n
}

// The unexpected path under recycling: containers arrive before their
// receives, each frame is released once its last packet has been copied
// out, and the next container is written over the same buffer — the
// queued payloads must survive that. A two-packet container checks that
// "last packet" means last: its packets run on different workers, and
// the frame must outlive both. Poisoning makes a frame released early —
// at dispatch, or after the first packet — show as a corrupted payload.
func TestUnexpectedPayloadsSurviveFrameReuse(t *testing.T) {
	poisonRecycled(t)
	f, eng := stepPair(t, 1)
	rx, node := eng[1], f.nodes[1]
	rng := rand.New(rand.NewSource(7))
	payload := func() []byte { b := make([]byte, 700); rng.Read(b); return b }
	a, b, c := payload(), payload(), payload()
	recvInto := func(tag uint32) []byte {
		buf := make([]byte, 700)
		if n, err := rx.Irecv(0, tag, buf).Wait(nil); err != nil || n != len(buf) {
			t.Fatalf("tag %d: n=%d err=%v", tag, n, err)
		}
		return buf
	}

	// Tags 1 and 2 hash to different workers of the two-worker pool or
	// not — either way the frame is shared by two work items.
	container := wire.EncodeEagerID(0, 0x51, 0, []wire.Packet{{Tag: 1, MsgID: 1, Payload: a}, {Tag: 2, MsgID: 2, Payload: b}})
	first := node.deliver(0, 0, container)
	eventually(t, "both packets to queue as unexpected", func() bool { return rx.Stats().Unexpected == 2 })

	// Once released, the frame is the next one a reader gets for this size:
	// the second container lands in the first one's buffer.
	eventually(t, "the first container's frame to be released", func() bool {
		d := node.frames.Get(len(container))
		if d == first {
			d.Release()
		}
		return d == first
	})
	container = wire.EncodeEagerID(0, 0x52, 0, []wire.Packet{{Tag: 3, MsgID: 3, Payload: c}, {Tag: 4, MsgID: 4, Payload: c}})
	if second := node.deliver(0, 0, container); second != first {
		t.Fatal("the second container did not reuse the first one's frame")
	}
	eventually(t, "its packets to queue as unexpected", func() bool { return rx.Stats().Unexpected == 4 })

	if got := recvInto(1); !bytes.Equal(got, a) {
		t.Fatalf("first packet corrupted after its frame was reused (starts % x)", got[:4])
	}
	if got := recvInto(2); !bytes.Equal(got, b) {
		t.Fatalf("second packet corrupted after its frame was reused (starts % x)", got[:4])
	}
	if got := recvInto(3); !bytes.Equal(got, c) {
		t.Fatalf("packet of the reusing container corrupted (starts % x)", got[:4])
	}

	// The matched path: receives posted first, payload copied straight out
	// of the frame by each packet's worker.
	bufA, bufB := make([]byte, 700), make([]byte, 700)
	ra, rb := rx.Irecv(0, 8, bufA), rx.Irecv(0, 9, bufB)
	node.deliver(0, 0, wire.EncodeEagerID(0, 0x53, 0, []wire.Packet{
		{Tag: 8, MsgID: 8, Payload: a}, {Tag: 9, MsgID: 9, Payload: b}}))
	ra.Wait(nil)
	rb.Wait(nil)
	if !bytes.Equal(bufA, a) || !bytes.Equal(bufB, b) {
		t.Fatal("matched packets of a shared frame corrupted")
	}
}

// The matching tables neither leak nor retain: a caller that uses a
// fresh tag per message leaves no key behind in any of them, the heap
// stays flat over 100 000 such round trips, and the steady state
// allocates nothing beyond the two requests (the eager ratchets).
func TestMatchingTablesStayEmptyOnFreshTags(t *testing.T) {
	trips := 100_000
	if testing.Short() {
		trips = 10_000
	}
	env := rt.NewLive()
	f, err := liveFabrics[0].build(env)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	eng := livePair(t, env, f)
	payload := make([]byte, 512)
	buf := make([]byte, 512)
	roundTrip := liveRoundTrip(t, eng, payload, buf)

	// Unexpected and parked-RTS keys too: every tenth message is sent
	// before its receive is posted, as an eager message or a rendezvous.
	big, bigBuf := make([]byte, 64<<10), make([]byte, 64<<10)
	tag := uint32(1 << 30)
	early := func(data, into []byte) {
		sr := eng[0].Isend(1, tag, data)
		eventually(t, "the early message (or its RTS) to arrive", func() bool { return eng[1].matchingKeys() > 0 })
		if n, err := eng[1].Irecv(0, tag, into).Wait(nil); err != nil || n != len(data) {
			t.Fatalf("early message: n=%d err=%v", n, err)
		}
		sr.RemoteDone().Wait(nil)
		tag++
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			roundTrip()
			if i%1000 == 0 {
				early(payload, buf)
				early(big, bigBuf)
			}
		}
	}
	run(trips / 10) // warm: free lists, maps, dedup windows
	before := heap()
	run(trips)
	after := heap()
	for i, e := range eng {
		if n := e.matchingKeys(); n != 0 {
			t.Errorf("engine %d: %d matching keys left after %d fresh-tag round trips", i, n, trips)
		}
	}
	// 24 bytes of slice header per leaked key alone would be 2.4 MB here,
	// before the retained requests and payloads.
	if grown := int64(after) - int64(before); grown > 1<<20 {
		t.Errorf("HeapInuse grew by %d bytes over %d round trips", grown, trips)
	}
}
