package wire

import (
	"fmt"
	"sort"
)

// Reassembly collects the chunks of one logical message striped across
// several rails and reports completion. Chunks may arrive in any order
// and on any rail. Overlapping and duplicate chunks are tolerated — the
// failover path re-sends a chunk whose rail died before it was
// acknowledged, so the same byte range can legitimately arrive twice
// (with identical bytes, both copies coming from the sender's buffer);
// only out-of-range chunks are rejected.
//
// A Reassembly may live inside its owner (Init) and must not be copied
// once initialised: its span set starts in storage of its own, so the
// ranges of a message striped over two rails grow nothing.
type Reassembly struct {
	msgID    uint64
	buf      []byte
	total    int
	received int
	chunks   int
	seen     []span // sorted, non-overlapping, merged
	seen0    [2]span
}

type span struct{ off, end int }

// NewReassembly starts reassembling a message of totalLen bytes into buf
// (which must be at least totalLen long).
func NewReassembly(msgID uint64, buf []byte, totalLen int) (*Reassembly, error) {
	r := new(Reassembly)
	if err := r.Init(msgID, buf, totalLen); err != nil {
		return nil, err
	}
	return r, nil
}

// Init is NewReassembly in place, for a Reassembly embedded in its owner.
func (r *Reassembly) Init(msgID uint64, buf []byte, totalLen int) error {
	if totalLen < 0 || len(buf) < totalLen {
		return fmt.Errorf("wire: reassembly buffer %d < total %d", len(buf), totalLen)
	}
	*r = Reassembly{msgID: msgID, buf: buf, total: totalLen}
	r.seen = r.seen0[:0]
	return nil
}

// MsgID returns the message being reassembled.
func (r *Reassembly) MsgID() uint64 { return r.msgID }

// Add copies one chunk into place. It returns true when the message is
// complete. Ranges already covered by earlier chunks count nothing
// toward completion (duplicates are idempotent).
func (r *Reassembly) Add(offset int, chunk []byte) (bool, error) {
	end := offset + len(chunk)
	if offset < 0 || end > r.total {
		return false, fmt.Errorf("wire: chunk [%d,%d) outside message of %d bytes", offset, end, r.total)
	}
	copy(r.buf[offset:end], chunk)
	r.chunks++
	r.merge(span{offset, end})
	return r.Done(), nil
}

// merge folds s into the sorted span set, counting only newly covered
// bytes into received.
func (r *Reassembly) merge(s span) {
	if s.off == s.end {
		return
	}
	// Locate the first existing span that ends after s starts.
	i := sort.Search(len(r.seen), func(i int) bool { return r.seen[i].end >= s.off })
	merged := s
	j := i
	fresh := s.end - s.off
	for ; j < len(r.seen) && r.seen[j].off <= merged.end; j++ {
		fresh -= overlap(s, r.seen[j])
		if r.seen[j].off < merged.off {
			merged.off = r.seen[j].off
		}
		if r.seen[j].end > merged.end {
			merged.end = r.seen[j].end
		}
	}
	if j == i { // nothing absorbed: insert at i
		r.seen = append(r.seen, span{})
		copy(r.seen[i+1:], r.seen[i:])
		r.seen[i] = merged
	} else { // seen[i:j] absorbed into one span
		r.seen[i] = merged
		r.seen = append(r.seen[:i+1], r.seen[j:]...)
	}
	r.received += fresh
}

// overlap returns how many bytes a and b share.
func overlap(a, b span) int {
	off, end := a.off, a.end
	if b.off > off {
		off = b.off
	}
	if b.end < end {
		end = b.end
	}
	if end <= off {
		return 0
	}
	return end - off
}

// Mark records [offset, offset+n) as received without copying: the
// caller has already placed the bytes in the buffer. This is the commit
// half of the engine's parallel striped copy, where the byte copy runs
// outside the lock guarding the Reassembly and Mark runs under it. It
// returns true when the message is complete.
func (r *Reassembly) Mark(offset, n int) (bool, error) {
	end := offset + n
	if offset < 0 || n < 0 || end > r.total {
		return false, fmt.Errorf("wire: chunk [%d,%d) outside message of %d bytes", offset, end, r.total)
	}
	r.chunks++
	r.merge(span{offset, end})
	return r.Done(), nil
}

// Span is one byte range, half-open.
type Span struct{ Off, End int }

// Missing returns the sub-ranges of [offset, offset+n) not yet received,
// in order. A fully fresh range comes back as itself; a fully covered
// (duplicate) range comes back empty. Ranges outside the message are
// clamped.
func (r *Reassembly) Missing(offset, n int) []Span {
	end := offset + n
	if offset < 0 {
		offset = 0
	}
	if end > r.total {
		end = r.total
	}
	if end <= offset {
		return nil
	}
	var out []Span
	at := offset
	i := sort.Search(len(r.seen), func(i int) bool { return r.seen[i].end > offset })
	for ; i < len(r.seen) && r.seen[i].off < end; i++ {
		if r.seen[i].off > at {
			out = append(out, Span{at, r.seen[i].off})
		}
		if r.seen[i].end > at {
			at = r.seen[i].end
		}
	}
	if at < end {
		out = append(out, Span{at, end})
	}
	return out
}

// Fresh reports whether all of [offset, offset+n) is in the message and
// still missing — Missing would return it whole — without allocating.
func (r *Reassembly) Fresh(offset, n int) bool {
	end := offset + n
	if offset < 0 || n <= 0 || end > r.total {
		return false
	}
	i := sort.Search(len(r.seen), func(i int) bool { return r.seen[i].end > offset })
	return i == len(r.seen) || r.seen[i].off >= end
}

// Total returns the total length of the message being reassembled.
func (r *Reassembly) Total() int { return r.total }

// Done reports whether every byte has arrived.
func (r *Reassembly) Done() bool { return r.received == r.total }

// Received returns the number of distinct bytes received so far.
func (r *Reassembly) Received() int { return r.received }

// Chunks returns how many chunks have been accepted (duplicates
// included).
func (r *Reassembly) Chunks() int { return r.chunks }
