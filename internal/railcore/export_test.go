package railcore

// Hooks for TestInlineWriteKeepsLinkOrder (package railcore_test), which
// reaches a link's queue and producer token through a fabric's *Rail.

// Queued returns how many frames wait in the queue of the rail's link to
// peer.
func (r *Rail) Queued(peer int) int { return len(r.link(peer).out) }

// HoldProducer takes the producer token of the rail's link to peer, as a
// sender inside its own write would, and returns its release.
func (r *Rail) HoldProducer(peer int) (release func()) {
	l := r.link(peer)
	l.takeProducer()
	return l.releaseProducer
}
