// Fixture for the nolockio pass: no mutex may be held across a fabric
// send or a net.Conn write.
package fixture

import (
	"net"
	"sync"
)

// Rail mimics a fabric rail: any named type Rail with the send-method
// set is treated as a transport by the pass.
type Rail struct{}

func (r *Rail) SendEager(to int, b []byte) error   { return nil }
func (r *Rail) SendControl(to int, b []byte) error { return nil }

type shard struct {
	mu sync.Mutex
	rw sync.RWMutex
}

func heldAcrossSend(s *shard, r *Rail) {
	s.mu.Lock()
	r.SendEager(0, nil) // want "transport call with s.mu held"
	s.mu.Unlock()
}

func heldByDefer(s *shard, r *Rail) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.SendControl(0, nil) // want "transport call with s.mu held"
}

func readLockAcrossConnWrite(s *shard, c net.Conn, b []byte) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	c.Write(b) // want "transport call with s.rw held"
}

func releasedBeforeSend(s *shard, r *Rail) {
	s.mu.Lock()
	s.mu.Unlock()
	r.SendEager(0, nil)
}

// closureIsIndependent: the literal runs on its own goroutine after the
// enclosing frame released its locks, so it is analyzed as its own body.
func closureIsIndependent(s *shard, r *Rail) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() { r.SendEager(0, nil) }
}

// handlers nests a function literal inside a top-level composite
// literal: it is a body like any other, and a lock held across a send
// inside it fires.
var handlers = []struct {
	name string
	fn   func(*shard, *Rail)
}{
	{name: "bad", fn: func(s *shard, r *Rail) {
		s.mu.Lock()
		defer s.mu.Unlock()
		r.SendEager(0, nil) // want "transport call with s.mu held"
	}},
	{name: "good", fn: func(s *shard, r *Rail) {
		r.SendEager(0, nil)
	}},
}

func suppressed(s *shard, r *Rail) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.SendEager(0, nil) //railvet:ignore nolockio fixture: demonstrates an audited suppression with a recorded reason
}

// Transport mimics the rail core's per-link seam (railcore.Transport): a
// write through it may wait on a ring or a socket the pass cannot see
// behind the interface, so the seam itself counts as the write.
type Transport interface {
	WriteV(prefix, head, body []byte) error
	TryWrite(prefix, head []byte) bool
	Goodbye(frame []byte)
}

func heldAcrossTransportWrite(s *shard, t Transport) {
	s.mu.Lock()
	t.WriteV(nil, nil, nil) // want "transport call with s.mu held"
	s.mu.Unlock()
}

// tryWriteNeverWaits: TryWrite is not a transport write — by contract it
// never waits.
func tryWriteNeverWaits(s *shard, t Transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.TryWrite(nil, nil)
}

func goodbyeSuppressed(s *shard, t Transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Goodbye(nil) //railvet:ignore nolockio fixture: a deadline-bounded goodbye on a link being torn down, audited
}
