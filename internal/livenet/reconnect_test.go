package livenet

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/railhealth"
	"repro/internal/rt"
)

// A reconnect leaves nothing of the link it replaced behind: the old
// link's writer retires and exits, and its socket leaves the tracked set.
// 20 rounds of DropLink and re-dial on a loopback pair keep the goroutine
// count and the tracked connections flat (each round replaces a link on
// both ends), and every reconnected rail carries traffic.
func TestReconnectLeavesNothingBehind(t *testing.T) {
	f, err := NewLoopback(rt.NewLive(), Config{
		Nodes: 2, Rails: 1, ReconnectAttempts: 5, ReconnectDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tracked := func() int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.conns)
	}
	got := make(chan []byte, 1)
	f.Node(0).(fabric.DirectNode).SetSink(func(d *fabric.Delivery) { got <- d.Data })
	baseG, baseC := runtime.NumGoroutine(), tracked()

	reconnects := func(node int) uint64 { return f.Node(node).Rail(0).Stats().Reconnects }
	for round := 0; round < 20; round++ {
		r0, r1 := reconnects(0), reconnects(1)
		f.DropLink(1, 0, 0)
		for deadline := time.Now().Add(10 * time.Second); reconnects(0) == r0 || reconnects(1) == r1; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				for n := 0; n < 2; n++ {
					h := f.Node(n).Health().(*railhealth.Tracker)
					t.Logf("node %d: rail %v (%q), link dead %v, %d reconnects", n, h.State(0), h.Reason(0), f.Link(n, 0, 1-n).Dead(), reconnects(n))
				}
				t.Fatalf("round %d: the dropped link was not re-established", round)
			}
		}
		payload := []byte(fmt.Sprintf("round %d", round))
		f.Node(1).Rail(0).SendEager(nil, 0, payload)
		select {
		case d := <-got:
			if !bytes.Equal(d, payload) {
				t.Fatalf("round %d: got %q", round, d)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: no traffic on the reconnected rail", round)
		}
	}

	// The accepting side's reconnect loop ends one ReconnectDelay after its
	// link was replaced: let the last one go.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseG+2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d over 20 reconnects", baseG, runtime.NumGoroutine())
		}
	}
	if c := tracked(); c > baseC+2 {
		t.Fatalf("tracked connections grew from %d to %d over 20 reconnects", baseC, c)
	}
}
