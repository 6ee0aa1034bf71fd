package progress

import "sync"

// Dedup is a bounded window of recently seen (peer, unit id) pairs: the
// receiver-side duplicate filter of the failover protocol. The window is
// lock-striped so that concurrent flows marking units never contend on
// one mutex; each stripe evicts its own oldest entries beyond its share
// of the capacity.
type Dedup struct {
	mask    uint32
	stripes []dedupStripe
}

type dedupKey struct {
	peer int
	id   uint64
}

type dedupStripe struct {
	mu   sync.Mutex
	seen map[dedupKey]struct{}
	q    []dedupKey // eviction order: a ring of cap entries once full
	head int        // oldest entry of the full ring
	cap  int
}

// NewDedup builds a window of ~capacity ids over the given stripe count
// (rounded up to a power of two, min 1).
func NewDedup(stripes, capacity int) *Dedup {
	n := Shards(stripes, 1)
	per := capacity / n
	if per < 1 {
		per = 1
	}
	d := &Dedup{mask: uint32(n - 1), stripes: make([]dedupStripe, n)}
	for i := range d.stripes {
		d.stripes[i].seen = make(map[dedupKey]struct{})
		d.stripes[i].cap = per
	}
	return d
}

func (d *Dedup) stripe(peer int, id uint64) *dedupStripe {
	return &d.stripes[UnitKey(peer, id)&d.mask]
}

// Mark records the pair, evicting the stripe's oldest entry beyond its
// capacity. It reports whether the pair was fresh (false = duplicate).
func (d *Dedup) Mark(peer int, id uint64) bool {
	s := d.stripe(peer, id)
	k := dedupKey{peer, id}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.seen[k]; dup {
		return false
	}
	s.seen[k] = struct{}{}
	if len(s.q) < s.cap {
		s.q = append(s.q, k)
		return true
	}
	delete(s.seen, s.q[s.head])
	s.q[s.head] = k
	s.head = (s.head + 1) % s.cap
	return true
}

// Seen reports whether the pair is in the window, without recording it.
func (d *Dedup) Seen(peer int, id uint64) bool {
	s := d.stripe(peer, id)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, dup := s.seen[dedupKey{peer, id}]
	return dup
}

// Len returns the total number of ids currently held (tests).
func (d *Dedup) Len() int {
	n := 0
	for i := range d.stripes {
		s := &d.stripes[i]
		s.mu.Lock()
		n += len(s.seen)
		s.mu.Unlock()
	}
	return n
}
