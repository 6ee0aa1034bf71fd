package fabric_test

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/rt"
	"repro/internal/simnet"
)

// poisonRecycled switches the poison-on-recycle hook on for one test.
func poisonRecycled(t *testing.T) {
	fabric.SetRecyclePoison(true)
	t.Cleanup(func() { fabric.SetRecyclePoison(false) })
}

// The frame pool's contract: a released frame comes back for the next
// request of its size class (poisoned, under the test hook), Release is
// idempotent until then, unpooled deliveries ignore it, and what nobody
// releases is simply not reused.
func TestFramePoolRecycles(t *testing.T) {
	poisonRecycled(t)
	var p fabric.FramePool
	a := p.Get(600)
	if len(a.Data) != 600 {
		t.Fatalf("Get(600) gave %d bytes", len(a.Data))
	}
	for i := range a.Data {
		a.Data[i] = 0x11
	}
	kept := p.Get(600) // never released: must not come back
	a.Release()
	a.Release()      // second call before reuse: no-op, not a double insert
	b := p.Get(1000) // same 1 KiB class
	if b != a {
		t.Fatal("released frame was not reused by the next request of its class")
	}
	if len(b.Data) != 1000 || !bytes.Equal(b.Data, bytes.Repeat([]byte{fabric.PoisonByte}, 1000)) {
		t.Fatalf("recycled frame has %d bytes, poisoned=%v", len(b.Data), bytes.Count(b.Data, []byte{fabric.PoisonByte}) == len(b.Data))
	}
	if c := p.Get(600); c == a || c == kept {
		t.Fatal("a frame in use was handed out again")
	}
	if small := p.Get(10); cap(small.Data) != 64 {
		t.Fatalf("smallest class is %d bytes, want 64", cap(small.Data))
	}

	// Unpooled: a literal, and a frame above the largest class.
	lit := &fabric.Delivery{Data: []byte("literal")}
	lit.Release()
	if string(lit.Data) != "literal" {
		t.Fatal("Release touched an unpooled delivery")
	}
	big := p.Get(1 << 20)
	big.Data[0] = 7
	big.Release()
	if big.Data[0] != 7 || p.Get(1<<20) == big {
		t.Fatal("an oversized frame was pooled")
	}

	// Bounded: releasing more frames than a list keeps drops the rest.
	var held []*fabric.Delivery
	for i := 0; i < 100; i++ {
		held = append(held, p.Get(64))
	}
	for _, d := range held {
		d.Release()
	}
	if n := testing.AllocsPerRun(20, func() { p.Get(64).Release() }); n != 0 {
		t.Fatalf("warm Get+Release allocates %v", n)
	}
}

// Every fabric copies a head of at most PlaceHeadMax bytes when it is
// posted: the sender may scribble over its scratch the moment the send
// call returns, and the receiver still sees the original frame. Longer
// heads stay aliased (not tested: that is the absence of a copy).
func TestShortHeadsAreCopiedAtEnqueue(t *testing.T) {
	check := func(t *testing.T, send func(scratch []byte), got func() []byte) {
		t.Helper()
		want := bytes.Repeat([]byte{0xA5}, 44)
		scratch := append([]byte(nil), want...)
		send(scratch)
		for i := range scratch {
			scratch[i] = 0 // the sender reuses its scratch immediately
		}
		if d := got(); !bytes.Equal(d[:44], want) {
			t.Fatalf("receiver saw the overwritten scratch: % x", d[:8])
		}
	}
	for _, fab := range placerFabrics {
		t.Run(fab.name, func(t *testing.T) {
			env := rt.NewLive()
			f, _ := fab.build(t, env)
			defer f.Close()
			rail := f.Node(0).Rail(fab.rail)
			sunk := make(chan []byte, 1)
			f.Node(1).(fabric.DirectNode).SetSink(func(d *fabric.Delivery) { sunk <- append([]byte(nil), d.Data...) })
			body := bytes.Repeat([]byte{1}, 100)
			check(t, func(s []byte) { rail.SendControl(nil, 1, s) }, func() []byte { return recv(t, "control", sunk) })
			check(t, func(s []byte) { rail.SendDataV(nil, 1, s, body, nil) }, func() []byte { return recv(t, "head+body", sunk) })
		})
	}
	t.Run("sim", func(t *testing.T) {
		env := rt.NewSim()
		c, err := simnet.New(env, simnet.Config{Nodes: 2, Rails: model.PaperTestbed(), CoresPerNode: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		rail := c.Nodes[0].Rail(0)
		posts := []func(ctx rt.Ctx, s []byte){
			func(ctx rt.Ctx, s []byte) { rail.SendControl(ctx, 1, s) },
			func(ctx rt.Ctx, s []byte) { rail.SendData(ctx, 1, s, nil) },
			func(ctx rt.Ctx, s []byte) { rail.SendEager(ctx, 1, s) },
		}
		checked := 0
		env.Go("probe", func(ctx rt.Ctx) {
			for _, post := range posts {
				check(t, func(s []byte) { post(ctx, s) }, func() []byte {
					return c.Nodes[1].RecvQ().Pop(ctx).(*fabric.Delivery).Data
				})
				checked++
			}
		})
		env.Run()
		if checked != len(posts) {
			t.Fatalf("%d of %d sends checked", checked, len(posts))
		}
	})
}
