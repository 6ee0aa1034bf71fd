package multirail_test

import (
	"bytes"
	"testing"
	"time"

	"repro/multirail"
)

// Two Distributed clusters in one process: the full two-process protocol
// of examples/tcp2proc, in-process so it runs under -race. Regression
// coverage for two shutdown/startup races of the live multicore path:
// the peer starting to send while this side is still sampling (early
// frames must be drained into the progress workers when the delivery
// sink is installed, not stranded in RecvQ), and a process closing its
// fabric right after local completion (the sender must wait RemoteDone
// before Close — teardown can reset connections and destroy in-flight
// frames, and a dead process cannot fail over).
func TestDistributedPairInProcess(t *testing.T) {
	const (
		big   = 4 << 20
		burst = 8
	)
	addr := "127.0.0.1:9641"
	srvErr := make(chan error, 1)
	go func() {
		c, err := multirail.New(multirail.Config{
			Fabric: multirail.FabricTCP, Distributed: true, Nodes: 2,
			LocalNode: 0, ListenAddr: addr,
		})
		if err != nil {
			srvErr <- err
			return
		}
		me := c.Node(0)
		c.Go("server", func(ctx multirail.Ctx) {
			small := make([]byte, 2<<10)
			for i := 0; i < burst; i++ {
				if _, err := me.Recv(ctx, 1, 100+uint32(i), small); err != nil {
					srvErr <- err
					return
				}
			}
			buf := make([]byte, big)
			if _, err := me.Recv(ctx, 1, 7, buf); err != nil {
				srvErr <- err
				return
			}
			sr := me.Isend(1, 8, buf)
			sr.Wait(ctx)
			sr.RemoteDone().Wait(ctx) // see doc comment: exit only once the peer acked
			srvErr <- nil
		})
		c.Run()
		c.Close()
	}()

	c, err := multirail.New(multirail.Config{
		Fabric: multirail.FabricTCP, Distributed: true, Nodes: 2,
		LocalNode: 1, Peers: map[int]string{0: addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	me := c.Node(1)
	done := make(chan error, 1)
	got := make([]byte, big)
	payload := make([]byte, big)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	c.Go("client", func(ctx multirail.Ctx) {
		for i := 0; i < burst; i++ {
			me.Isend(0, 100+uint32(i), make([]byte, 2<<10))
		}
		me.Send(ctx, 0, 7, payload)
		_, err := me.Recv(ctx, 0, 8, got)
		done <- err
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("distributed round trip hung; client stats %+v", c.EngineStats(1))
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reply payload corrupted")
	}
	select {
	case err := <-srvErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server never finished")
	}
}

// The mixed heterogeneous rail set across two Distributed clusters in
// one process: one mmap-backed shared-memory rail plus two TCP rails,
// exactly the examples/tcp2proc shape with -shm-rails 1. Covers the
// ring-file attach handshake, the distributed sampling twin for mixed
// rail sets, and the join of both fabrics into one rail set under -race.
func TestDistributedMixedShmTCPPairInProcess(t *testing.T) {
	const big = 2 << 20
	addr := "127.0.0.1:9643"
	shmDir := t.TempDir()
	mkCfg := func(local int) multirail.Config {
		cfg := multirail.Config{
			Fabric: multirail.FabricTCP, Distributed: true, Nodes: 2,
			TCPRails: 2, ShmRails: 1, ShmDir: shmDir,
			LocalNode:   local,
			SamplingMax: 256 << 10,
		}
		if local == 0 {
			cfg.ListenAddr = addr
		} else {
			cfg.Peers = map[int]string{0: addr}
		}
		return cfg
	}

	srvErr := make(chan error, 1)
	go func() {
		c, err := multirail.New(mkCfg(0))
		if err != nil {
			srvErr <- err
			return
		}
		me := c.Node(0)
		c.Go("server", func(ctx multirail.Ctx) {
			buf := make([]byte, big)
			if _, err := me.Recv(ctx, 1, 7, buf); err != nil {
				srvErr <- err
				return
			}
			sr := me.Isend(1, 8, buf)
			sr.Wait(ctx)
			sr.RemoteDone().Wait(ctx)
			srvErr <- nil
		})
		c.Run()
		c.Close()
	}()

	c, err := multirail.New(mkCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.FabricKind() != "shm+tcp" || c.Rails() != 3 || c.RailKind(0) != "shm" {
		t.Fatalf("fabric %s with %d rails (rail0=%s), want shm+tcp with 3 (shm first)",
			c.FabricKind(), c.Rails(), c.RailKind(0))
	}
	me := c.Node(1)
	done := make(chan error, 1)
	payload := make([]byte, big)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	got := make([]byte, big)
	c.Go("client", func(ctx multirail.Ctx) {
		me.Send(ctx, 0, 7, payload)
		_, err := me.Recv(ctx, 0, 8, got)
		done <- err
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("mixed distributed round trip hung; client stats %+v", c.EngineStats(1))
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reply payload corrupted")
	}
	select {
	case err := <-srvErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server never finished")
	}
}
