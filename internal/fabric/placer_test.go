package fabric_test

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/livenet"
	"repro/internal/model"
	"repro/internal/rt"
	"repro/internal/shmnet"
	"repro/internal/simnet"
)

// placerFabrics are the fabrics whose nodes take a Placer: both live
// transports and the two joined by NewMix (whose placer must see combined
// rail indices). rail is the rail the test drives; kill severs it.
var placerFabrics = []struct {
	name  string
	rail  int
	build func(t *testing.T, env *rt.LiveEnv) (f fabric.Fabric, kill func())
}{
	{"shm", 0, func(t *testing.T, env *rt.LiveEnv) (fabric.Fabric, func()) {
		f, err := shmnet.NewHosted(env, shmnet.Config{Rails: 1, RingBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return f, func() { f.FailRail(0, 0) }
	}},
	{"tcp", 0, func(t *testing.T, env *rt.LiveEnv) (fabric.Fabric, func()) {
		f, err := livenet.NewLoopback(env, livenet.Config{Rails: 1})
		if err != nil {
			t.Fatal(err)
		}
		return f, func() { f.FailRail(0, 0) }
	}},
	{"mix", 1, func(t *testing.T, env *rt.LiveEnv) (fabric.Fabric, func()) {
		shm, err := shmnet.NewHosted(env, shmnet.Config{Rails: 1})
		if err != nil {
			t.Fatal(err)
		}
		tcp, err := livenet.NewLoopback(env, livenet.Config{Rails: 1})
		if err != nil {
			t.Fatal(err)
		}
		m, err := fabric.NewMix(-1, shm, tcp)
		if err != nil {
			t.Fatal(err)
		}
		return m, func() { tcp.FailRail(0, 0) }
	}},
}

// recv waits for one value, failing the test instead of hanging it.
func recv[T any](t *testing.T, what string, ch chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

type placeCall struct {
	from, rail, bodyLen int
	head                []byte
}

// The Placer contract, on every fabric that has one: a head+body frame
// is offered with its head and body length; an accepted body lands in
// the destination and commits exactly once, reaching no sink; a declined
// one, a body-less frame and a frame with an oversized head arrive as
// one contiguous delivery; a lane that dies mid-body aborts exactly
// once.
func TestPlacerContract(t *testing.T) {
	for _, fab := range placerFabrics {
		t.Run(fab.name, func(t *testing.T) {
			env := rt.NewLive()
			f, kill := fab.build(t, env)
			defer f.Close()
			rail := f.Node(0).Rail(fab.rail)
			dn := f.Node(1).(fabric.DirectNode)

			head := []byte("forty-four bytes of chunk header, more or less")[:44]
			body := make([]byte, 256<<10)
			rand.New(rand.NewSource(1)).Read(body)
			dst := make([]byte, len(body))

			sunk := make(chan *fabric.Delivery, 4)
			calls := make(chan placeCall, 4)
			outcome := make(chan bool, 4)
			var decline atomic.Bool
			dn.SetSink(func(d *fabric.Delivery) { sunk <- d })
			dn.SetPlacer(func(from, rail int, head []byte, n int) ([]byte, fabric.Placed) {
				calls <- placeCall{from, rail, n, append([]byte(nil), head...)}
				if decline.Load() {
					return nil, nil
				}
				return dst, fabric.PlacedFunc(func(ok bool) { outcome <- ok })
			})
			quiet := func() {
				t.Helper()
				if len(sunk) != 0 || len(calls) != 0 || len(outcome) != 0 {
					t.Fatalf("stray events: %d deliveries, %d placer calls, %d outcomes", len(sunk), len(calls), len(outcome))
				}
			}

			// Accepted: the body lands in dst, commits once, reaches no sink.
			sent := env.NewEvent()
			rail.SendDataV(nil, 1, head, body, sent)
			c := recv(t, "placer call", calls)
			if c.from != 0 || c.rail != fab.rail || c.bodyLen != len(body) || !bytes.Equal(c.head, head) {
				t.Fatalf("placer asked %+v", c)
			}
			if ok := recv(t, "commit", outcome); !ok || !bytes.Equal(dst, body) {
				t.Fatalf("placement committed=%v, body intact=%v", ok, bytes.Equal(dst, body))
			}
			sent.Wait(nil)
			if st := rail.Stats(); st.Messages != 1 || st.Bytes != uint64(len(head)+len(body)) {
				t.Fatalf("sender stats %+v, want 1 frame of head+body bytes", st)
			}
			quiet()

			// Declined: one contiguous delivery of head followed by body.
			decline.Store(true)
			rail.SendDataV(nil, 1, head, body, nil)
			recv(t, "placer call", calls)
			d := recv(t, "fallback delivery", sunk)
			if d.From != 0 || d.Rail != fab.rail || !bytes.Equal(d.Data, append(append([]byte(nil), head...), body...)) {
				t.Fatalf("declined frame arrived from=%d rail=%d len=%d", d.From, d.Rail, len(d.Data))
			}
			decline.Store(false)

			// Body-less and long-headed frames never reach the placer.
			rail.SendData(nil, 1, body[:1000], nil)
			if d := recv(t, "one-slice delivery", sunk); !bytes.Equal(d.Data, body[:1000]) {
				t.Fatal("one-slice frame corrupted")
			}
			rail.SendDataV(nil, 1, body[:fabric.PlaceHeadMax+1], body[:10], nil)
			if d := recv(t, "long-head delivery", sunk); len(d.Data) != fabric.PlaceHeadMax+11 {
				t.Fatalf("long-head frame arrived with %d bytes", len(d.Data))
			}
			quiet()

			// Abort: the lane dies between the head and the end of the
			// body — the claim must be handed back, exactly once.
			dn.SetPlacer(func(from, rail int, head []byte, n int) ([]byte, fabric.Placed) {
				kill()
				return make([]byte, n), fabric.PlacedFunc(func(ok bool) { outcome <- ok })
			})
			rail.SendDataV(nil, 1, head, make([]byte, 4<<20), nil)
			if ok := recv(t, "abort", outcome); ok {
				t.Fatal("placement on a killed lane committed")
			}
			dn.SetPlacer(nil)
			quiet()
		})
	}
}

// NewMix joins live fabrics only: the simulator, first or not, is refused
// with an error, and so is a set of one.
func TestNewMixRefusesWhatCannotJoin(t *testing.T) {
	env := rt.NewSim()
	defer env.Close()
	sim, err := simnet.New(env, simnet.Config{Nodes: 2, Rails: model.PaperTestbed(), CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	shm, err := shmnet.NewHosted(rt.NewLive(), shmnet.Config{Rails: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shm.Close()
	for name, subs := range map[string][]fabric.Fabric{
		"sim first": {sim, shm}, "sim second": {shm, sim}, "one": {shm},
	} {
		if f, err := fabric.NewMix(-1, subs...); err == nil {
			f.Close()
			t.Errorf("%s: NewMix accepted it", name)
		}
	}
}
