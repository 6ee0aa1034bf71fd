// Tcp2proc runs the multirail engine across two OS processes joined by
// real TCP rails: each process hosts one node of a two-node cluster, and
// every rail is its own TCP connection. It demonstrates that the paper's
// scheduler — eager aggregation below the rendezvous threshold, striped
// rendezvous above it — drives a genuine transport, not only the
// virtual-time model.
//
// Start the server (node 0), then the client (node 1):
//
//	tcp2proc -role server -listen 127.0.0.1:9500
//	tcp2proc -role client -peer   127.0.0.1:9500
//
// With -shm-rails N (same value and -shm-dir on both sides) the two
// processes additionally share N mmap-backed shared-memory rails: the
// lower-id process creates ring files under -shm-dir, the other
// attaches, and intra-host traffic gets a genuine PIO-regime lane next
// to the TCP ones:
//
//	tcp2proc -role server -listen 127.0.0.1:9500 -shm-rails 1 -shm-dir /tmp/nm2proc
//	tcp2proc -role client -peer   127.0.0.1:9500 -shm-rails 1 -shm-dir /tmp/nm2proc
//
// The client sends a burst of small messages (aggregated into eager
// containers) followed by a large payload (striped over every rail via
// RTS/CTS rendezvous); the server verifies both and answers with its own
// large payload, so data flows in both directions. Then the client
// streams -bulk 1 MiB messages, four in flight, and the server verifies
// every one and prints the rate it received them at. Both sides print
// per-rail byte counts, showing that every TCP rail carried traffic, and
// for shm rails how many chunk bodies moved: copied once by the receiver,
// straight from the sender's memory with process_vm_readv, instead of
// streaming through the ring. A receiver that may not read its peer
// (Yama ptrace_scope, seccomp) says why, and its bodies stream. Both
// processes take the same -bulk; -rails 0 leaves only the shm rails:
//
//	tcp2proc -role server -rails 0 -shm-rails 1 -shm-dir /tmp/nm2proc -bulk 256
//	tcp2proc -role client -rails 0 -shm-rails 1 -shm-dir /tmp/nm2proc -bulk 256
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/stats"
	"repro/multirail"
)

const (
	tagSmall = 100 // burst of eager messages: tags 100..100+burst-1
	tagBig   = 7   // client -> server rendezvous payload
	tagReply = 8   // server -> client rendezvous payload
	burst    = 8
	smallSz  = 2 << 10
	bigSz    = 4 << 20

	tagBulk     = 200 // bulk stream: tags 200..200+bulkWindow-1, one per buffer
	tagVerified = 9   // server -> client: the bulk stream arrived intact
	bulkSz      = 1 << 20
	bulkWindow  = 4
)

func main() {
	role := flag.String("role", "", "server (node 0) or client (node 1)")
	listen := flag.String("listen", "127.0.0.1:9500", "server: address the rails accept on")
	peer := flag.String("peer", "127.0.0.1:9500", "client: server address to dial")
	rails := flag.Int("rails", 2, "number of TCP rails")
	shmRails := flag.Int("shm-rails", 0, "number of mmap-backed shared-memory rails (both processes must run on one host)")
	shmDir := flag.String("shm-dir", "", "directory for the shm ring files (required with -shm-rails; same on both sides)")
	bulk := flag.Int("bulk", 16, "1 MiB messages the client streams after the exchange (same on both sides)")
	flag.Parse()

	if *shmRails > 0 && *shmDir == "" {
		fmt.Fprintln(os.Stderr, "tcp2proc: -shm-rails needs -shm-dir")
		os.Exit(2)
	}
	cfg := multirail.Config{
		Fabric:      multirail.FabricTCP,
		Distributed: true,
		Nodes:       2,
		TCPRails:    *rails,
		ShmRails:    *shmRails,
		ShmDir:      *shmDir,
	}
	if *rails == 0 {
		cfg.Fabric = multirail.FabricShm
	}
	var local, remote int
	switch *role {
	case "server":
		cfg.LocalNode = 0
		cfg.ListenAddr = *listen
		local, remote = 0, 1
	case "client":
		cfg.LocalNode = 1
		cfg.Peers = map[int]string{0: *peer}
		local, remote = 1, 0
	default:
		fmt.Fprintln(os.Stderr, "tcp2proc: -role must be server or client")
		os.Exit(2)
	}
	if *shmRails > 0 {
		fmt.Printf("# %s: node %d, %d TCP + %d shm rails, waiting for peer...\n", *role, local, *rails, *shmRails)
	} else {
		fmt.Printf("# %s: node %d, %d TCP rails, waiting for peer...\n", *role, local, *rails)
	}
	c, err := multirail.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer c.Close()
	fmt.Printf("# connected; rendezvous threshold rail 0: %s\n", stats.SizeLabel(c.Threshold(0)))

	me := c.Node(local)
	rng := rand.New(rand.NewSource(int64(local) + 1))
	big := make([]byte, bigSz)
	rng.Read(big)

	start := time.Now()
	c.Go(*role, func(ctx multirail.Ctx) {
		if local == 1 { // client drives
			for i := 0; i < burst; i++ {
				me.Isend(remote, tagSmall+uint32(i), make([]byte, smallSz))
			}
			me.Send(ctx, remote, tagBig, big)
			buf := make([]byte, bigSz)
			n, err := me.Recv(ctx, remote, tagReply, buf)
			check(err)
			fmt.Printf("# client: got %s reply\n", stats.SizeLabel(n))
		} else { // server answers
			small := make([]byte, smallSz)
			for i := 0; i < burst; i++ {
				n, err := me.Recv(ctx, remote, tagSmall+uint32(i), small)
				check(err)
				if n != smallSz {
					check(fmt.Errorf("eager message %d: %d bytes, want %d", i, n, smallSz))
				}
			}
			buf := make([]byte, bigSz)
			n, err := me.Recv(ctx, remote, tagBig, buf)
			check(err)
			want := make([]byte, bigSz)
			rand.New(rand.NewSource(2)).Read(want) // client seed = 1+1
			if n != bigSz || !bytes.Equal(buf, want) {
				check(fmt.Errorf("rendezvous payload corrupted (%d bytes)", n))
			}
			fmt.Printf("# server: verified %d eager messages and a %s rendezvous\n",
				burst, stats.SizeLabel(bigSz))
			sr := me.Isend(remote, tagReply, big)
			sr.Wait(ctx)
			// Wait for the client to acknowledge every transfer unit
			// before this process exits: local completion only means the
			// bytes reached the kernel, and closing the fabric while the
			// peer is still reading can reset the connections and destroy
			// the reply in flight (the peer would then wait forever — a
			// dead process cannot fail over).
			sr.RemoteDone().Wait(ctx)
		}
		bulkPhase(ctx, me, local, remote, *bulk)
	})
	c.Run()

	elapsed := time.Since(start)
	st := c.EngineStats(local)
	fmt.Printf("# %s done in %v: eager=%d (aggregated %d) rdv=%d chunks=%d bytes=%s\n",
		*role, elapsed.Round(time.Millisecond), st.EagerSent, st.EagerAggregated,
		st.RdvSent, st.ChunksSent, stats.SizeLabel(int(st.BytesSent)))
	for r := 0; r < c.Rails(); r++ {
		rs := c.RailStats(local)[r]
		fmt.Printf("#   rail %d (%s): %d msgs, %s sent", r, c.RailKind(r), rs.Messages, stats.SizeLabel(int(rs.Bytes)))
		if c.RailKind(r) == "shm" {
			fmt.Printf(", %d bodies moved", rs.Moved)
			if rs.MoveRefused > 0 {
				fmt.Printf(", move refused: %s", rs.MoveRefusedReason)
			}
		}
		fmt.Println()
	}
}

// bulkPayloads returns the bulk stream's buffers, the same in both
// processes: the message on tag tagBulk+k carries buffer k.
func bulkPayloads() [bulkWindow][]byte {
	var p [bulkWindow][]byte
	for k := range p {
		p[k] = make([]byte, bulkSz)
		rand.New(rand.NewSource(int64(100 + k))).Read(p[k])
	}
	return p
}

// bulkPhase streams n 1 MiB messages from the client to the server, one
// in flight per tag and buffer, and has the server verify every one and
// report the rate it received them at. It ends as the exchange before it
// does: the server sends last and waits for the client's ack, so it does
// not close — retiring its last acks of the stream unwritten — while the
// client still waits for them.
func bulkPhase(ctx multirail.Ctx, me *multirail.Node, local, remote, n int) {
	if n <= 0 {
		return
	}
	payloads := bulkPayloads()
	start := time.Now()
	if local == 1 {
		var sends [bulkWindow]*multirail.SendRequest
		for i := 0; i < n; i++ {
			k := i % bulkWindow
			if sends[k] != nil {
				sends[k].Wait(ctx)
			}
			sends[k] = me.Isend(remote, tagBulk+uint32(k), payloads[k])
		}
		for _, s := range sends {
			if s != nil {
				s.RemoteDone().Wait(ctx)
			}
		}
		_, err := me.Recv(ctx, remote, tagVerified, make([]byte, 1))
		check(err)
		return
	}
	var recvs [bulkWindow]*multirail.RecvRequest
	var bufs [bulkWindow][]byte
	verify := func(k int) {
		got, err := recvs[k].Wait(ctx)
		check(err)
		if got != bulkSz || !bytes.Equal(bufs[k], payloads[k]) {
			check(fmt.Errorf("bulk message on tag %d corrupted (%d bytes)", tagBulk+k, got))
		}
	}
	for i := 0; i < n; i++ {
		k := i % bulkWindow
		if recvs[k] != nil {
			verify(k)
		} else {
			bufs[k] = make([]byte, bulkSz)
		}
		recvs[k] = me.Irecv(remote, tagBulk+uint32(k), bufs[k])
	}
	for k := range recvs {
		if recvs[k] != nil {
			verify(k)
		}
	}
	el := time.Since(start)
	fmt.Printf("# server: verified %d bulk messages of %s in %v: %.0f MB/s\n",
		n, stats.SizeLabel(bulkSz), el.Round(time.Millisecond), float64(n*bulkSz)/el.Seconds()/1e6)
	sr := me.Isend(remote, tagVerified, []byte{1})
	sr.Wait(ctx)
	sr.RemoteDone().Wait(ctx)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcp2proc:", err)
		os.Exit(1)
	}
}
