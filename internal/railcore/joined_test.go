package railcore_test

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/livenet"
	"repro/internal/railcore/railcoretest"
	"repro/internal/rt"
	"repro/internal/shmnet"
)

// The rail core's contract suite (railcoretest) on the joined core: a shm
// rail and a TCP rail on one node.

var joined = railcoretest.Joined

func TestJoinedRawFrameCrosses(t *testing.T)         { railcoretest.RawFrameCrosses(t, joined) }
func TestJoinedLargeFrameStreams(t *testing.T)       { railcoretest.LargeFrameStreams(t, joined) }
func TestJoinedIdleAtDrains(t *testing.T)            { railcoretest.IdleAtDrains(t, joined) }
func TestJoinedCloseReleasesSenders(t *testing.T)    { railcoretest.CloseReleasesSenders(t, joined) }
func TestJoinedOversizedFramePanics(t *testing.T)    { railcoretest.OversizedFramePanics(t, joined) }
func TestJoinedDirectSinkBypassesRecvQ(t *testing.T) { railcoretest.DirectSinkBypassesRecvQ(t, joined) }
func TestJoinedThrottleRailSlowsLane(t *testing.T)   { railcoretest.ThrottleRailSlowsLane(t, joined) }
func TestJoinedGracefulPeerCloseIsNotAnError(t *testing.T) {
	railcoretest.GracefulPeerCloseIsNotAnError(t, joined)
}

// The mover contract on the joined core's shm rail (rail 0).
func TestJoinedMovePlaced(t *testing.T)      { railcoretest.MovePlaced(t, joined) }
func TestJoinedMoveDeclined(t *testing.T)    { railcoretest.MoveDeclined(t, joined) }
func TestJoinedMoveRailKilled(t *testing.T)  { railcoretest.MoveRailKilled(t, joined) }
func TestJoinedMoveCloseSweeps(t *testing.T) { railcoretest.MoveCloseSweeps(t, joined) }
func TestJoinedMoveFloor(t *testing.T)       { railcoretest.MoveFloor(t, joined) }
func TestJoinedMoveSlotsFull(t *testing.T)   { railcoretest.MoveSlotsFull(t, joined) }

// A join can happen under traffic: in a distributed pair, node 1 sends
// numbered frames on its shm rail before, during and after node 0 joins
// its TCP and shm fabrics (TCP first, so the shm rail moves from index 0
// to 2). Every frame reaches the joined node exactly once, in order, under
// the combined index — the ones node 0's shm node had queued before the
// join included, which the join drains across.
func TestJoinUnderTraffic(t *testing.T) {
	env0, env1 := rt.NewLive(), rt.NewLive()
	s0, s1 := railcoretest.SHM.Pair(t, env0, env1)
	t0, _ := railcoretest.TCP.Pair(t, env0, env1)
	const before, after = 200, 200
	ready, joinedCh, sent := make(chan struct{}), make(chan struct{}), make(chan uint32, 1)
	var once sync.Once
	endJoin := func() { once.Do(func() { close(joinedCh) }) }
	t.Cleanup(endJoin) // a failed test still lets the sender finish
	go func() {
		rail := s1.Node(1).Rail(0)
		var frame [16]byte // copied at enqueue: a short head
		seq := uint32(0)
		send := func() {
			binary.LittleEndian.PutUint32(frame[:], seq)
			rail.SendEager(nil, 0, frame[:])
			seq++
		}
		for seq < before {
			send()
		}
		close(ready)
		for done := false; !done; {
			select {
			case <-joinedCh:
				done = true
			default:
				send()
			}
		}
		for i := 0; i < after; i++ {
			send()
		}
		sent <- seq
	}()

	<-ready
	old := s0.Node(0).RecvQ()
	eventually(t, "frames queued before the join", func() bool { return old.Len() >= before/2 })
	j, err := fabric.NewMix(0, t0, s0)
	endJoin()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })

	var mu sync.Mutex
	var seqs, rails []int
	j.Node(0).(fabric.DirectNode).SetSink(func(d *fabric.Delivery) {
		mu.Lock()
		seqs = append(seqs, int(binary.LittleEndian.Uint32(d.Data)))
		rails = append(rails, d.Rail)
		mu.Unlock()
		d.Release()
	})
	var total uint32
	select {
	case total = <-sent:
	case <-time.After(30 * time.Second):
		t.Fatal("sender never finished")
	}
	eventually(t, "every frame to arrive", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs) >= int(total)
	})
	time.Sleep(10 * time.Millisecond) // a duplicate would arrive now
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != int(total) {
		t.Fatalf("%d frames arrived, %d sent", len(seqs), total)
	}
	for i := range seqs {
		if seqs[i] != i || rails[i] != 2 {
			t.Fatalf("arrival %d: frame %d on rail %d, want frame %d on rail 2", i, seqs[i], rails[i], i)
		}
	}
	if n := old.Len(); n != 0 {
		t.Fatalf("%d frames stranded in the shm node's queue", n)
	}
}

// A joined TCP rail still reconnects: DropLink on the TCP fabric (its own
// rail 0) is re-dialed with the TCP rail index in the hello, reported back
// Up on the joined node's rail 1, and carries traffic again.
func TestReconnectAfterJoin(t *testing.T) {
	env := rt.NewLive()
	shm, err := shmnet.NewHosted(env, shmnet.Config{Rails: 1})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := livenet.NewLoopback(env, livenet.Config{Rails: 1})
	if err != nil {
		shm.Close()
		t.Fatal(err)
	}
	j, err := fabric.NewMix(-1, shm, tcp)
	if err != nil {
		shm.Close()
		tcp.Close()
		t.Fatal(err)
	}
	defer j.Close()
	events := j.Node(0).Health().Subscribe()

	tcp.DropLink(0, 1, 0)
	var seen []fabric.RailEvent
	eventually(t, "rail 1 to come back up", func() bool {
		for {
			item, ok := events.TryPop()
			if !ok {
				return len(seen) > 1 && seen[len(seen)-1].State == fabric.RailUp
			}
			ev := *item.(*fabric.RailEvent)
			if ev.Rail != 1 {
				t.Fatalf("event %+v on a rail that was not dropped", ev)
			}
			seen = append(seen, ev)
		}
	})
	if seen[0].State != fabric.RailSuspect || seen[len(seen)-1].Reason != "reconnected" {
		t.Fatalf("events %+v, want suspect ... up (reconnected)", seen)
	}
	if n := j.Node(0).Rail(1).Stats().Reconnects; n != 1 {
		t.Fatalf("%d reconnects on rail 1, want 1", n)
	}

	got := make(chan *fabric.Delivery, 1)
	j.Node(1).(fabric.DirectNode).SetSink(func(d *fabric.Delivery) { got <- d })
	j.Node(0).Rail(1).SendEager(nil, 1, []byte("after the reconnect"))
	select {
	case d := <-got:
		if d.Rail != 1 || string(d.Data) != "after the reconnect" {
			t.Fatalf("delivery on rail %d: %q", d.Rail, d.Data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no traffic on the reconnected rail")
	}
}
