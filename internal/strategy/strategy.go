// Package strategy implements the optimization strategies of the paper's
// NewMadeleine engine as pure decision procedures: given a message, the
// per-rail sampled estimators and each NIC's predicted idle time, decide
// how to split and where to send.
//
// Strategies (paper section in parentheses):
//
//   - SingleRail: whole message on the rail with the earliest predicted
//     completion, accounting for busy NICs (Fig 2).
//   - IsoSplit: equal chunks on every rail (Fig 1b) — the baseline that
//     Fig 8 shows saturating at twice the slower rail.
//   - HeteroSplit: chunks sized so every rail finishes at the same
//     predicted instant, found by bisection as §II-B describes (Fig 1c),
//     including the time remaining before busy NICs become idle (Fig 2).
//     Rails that cannot contribute by the common completion time are
//     discarded automatically.
//   - RatioSplit: the OpenMPI-style baseline criticised in §II-A — a
//     fixed ratio computed from the rails' throughput at one reference
//     size, applied at every size, ignoring NIC state.
//   - AssignGreedy: the "when a NIC becomes idle, it looks after the next
//     communication" packet balancer whose poor eager behaviour motivates
//     aggregation (Fig 3).
//   - PlanEager: the multicore eager plan (§II-C/III-D): aggregate on the
//     fastest rail when only one core is usable; split across
//     min{idle NICs, idle cores} rails, charging the 3 µs offload cost,
//     when parallel PIO submission is predicted to win.
package strategy

import (
	"fmt"
	"time"
)

// Estimator predicts one-way transfer durations on one rail. Both
// sampling.RailProfile (measured) and ModelEstimator (analytic) satisfy
// it.
type Estimator interface {
	// Estimate returns the predicted one-way transfer duration of an
	// n-byte message.
	Estimate(n int) time.Duration
	// SizeFor returns the largest size whose predicted duration does not
	// exceed d, capped at max (0 = implementation default).
	SizeFor(d time.Duration, max int) int
}

// RailView is a strategy's view of one rail at decision time.
type RailView struct {
	// Index identifies the rail in the cluster.
	Index int
	// Est is the rail's sampled estimator.
	Est Estimator
	// IdleAt is the absolute time the NIC is predicted to become idle
	// (now or earlier if it is idle).
	IdleAt time.Duration
	// EagerMax is the rail's eager payload limit (0 = none).
	EagerMax int
	// Down marks a rail that is not schedulable (Suspect or Down in the
	// fabric's health tracker). Every splitter excludes such rails; the
	// zero value keeps a bare RailView usable.
	Down bool
}

// Usable returns the rails a strategy may place work on: those not
// marked Down. When every rail is Down it returns rails unchanged — the
// engine decides separately whether to send at all, and a last-resort
// decision over dead rails is still a valid (droppable) decision.
//
//railvet:upfilter
func Usable(rails []RailView) []RailView {
	up := 0
	for i := range rails {
		if !rails[i].Down {
			up++
		}
	}
	if up == len(rails) || up == 0 {
		return rails
	}
	out := make([]RailView, 0, up)
	for i := range rails {
		if !rails[i].Down {
			out = append(out, rails[i])
		}
	}
	return out
}

// wait returns how long the rail keeps us waiting beyond now.
func (r *RailView) wait(now time.Duration) time.Duration {
	if r.IdleAt <= now {
		return 0
	}
	return r.IdleAt - now
}

// Completion returns the predicted completion time (relative to now) of
// an n-byte transfer on this rail, including the wait for the NIC to
// become idle — the quantity compared in Fig 2.
func (r *RailView) Completion(now time.Duration, n int) time.Duration {
	return r.wait(now) + r.Est.Estimate(n)
}

// Chunk is one piece of a split decision.
type Chunk struct {
	// Rail is the rail the chunk goes on.
	Rail int
	// Offset and Size locate the chunk in the message.
	Offset int
	Size   int
}

// Splitter decides how an n-byte message is distributed over rails.
type Splitter interface {
	// Name identifies the strategy in reports.
	Name() string
	// Split returns contiguous, non-overlapping chunks covering [0, n).
	// rails is never empty.
	Split(n int, now time.Duration, rails []RailView) []Chunk
}

// Appender is a Splitter that can plan into the caller's storage:
// AppendSplit appends what Split would return to dst. A caller that owns
// a reusable slice (the engine's work items) then plans a rendezvous
// without allocating.
type Appender interface {
	AppendSplit(dst []Chunk, n int, now time.Duration, rails []RailView) []Chunk
}

// CapChunks bounds a plan's chunks by their rails' limits: a chunk larger
// than max(its rail) — 0 is no limit — becomes consecutive chunks of at
// most that size on the same rail. The result is appended to dst, unless
// no chunk is over its limit: chunks is then returned as it is.
func CapChunks(dst, chunks []Chunk, max func(rail int) int) []Chunk {
	over := false
	for _, c := range chunks {
		if m := max(c.Rail); m > 0 && c.Size > m {
			over = true
			break
		}
	}
	if !over {
		return chunks
	}
	for _, c := range chunks {
		for m := max(c.Rail); m > 0 && c.Size > m; c.Offset, c.Size = c.Offset+m, c.Size-m {
			dst = append(dst, Chunk{Rail: c.Rail, Offset: c.Offset, Size: m})
		}
		dst = append(dst, c)
	}
	return dst
}

// Validate checks that chunks exactly cover [0, n) in order. It is used
// by tests and by the engine in debug builds.
func Validate(n int, chunks []Chunk) error {
	if n == 0 {
		if len(chunks) != 0 {
			return fmt.Errorf("strategy: %d chunks for empty message", len(chunks))
		}
		return nil
	}
	if len(chunks) == 0 {
		return fmt.Errorf("strategy: no chunks for %d bytes", n)
	}
	off := 0
	for i, c := range chunks {
		if c.Size <= 0 {
			return fmt.Errorf("strategy: chunk %d has size %d", i, c.Size)
		}
		if c.Offset != off {
			return fmt.Errorf("strategy: chunk %d at offset %d, want %d", i, c.Offset, off)
		}
		off += c.Size
	}
	if off != n {
		return fmt.Errorf("strategy: chunks cover %d bytes, want %d", off, n)
	}
	return nil
}

// PredictedCompletion returns the maximum predicted completion (relative
// to now) over the chunks of a split.
//
//railvet:ignore railup arithmetic over an already-decided split: the loops build a lookup index and score chunks, they never choose rails
func PredictedCompletion(now time.Duration, rails []RailView, chunks []Chunk) time.Duration {
	byIndex := make(map[int]*RailView, len(rails))
	for i := range rails {
		byIndex[rails[i].Index] = &rails[i]
	}
	var worst time.Duration
	for _, c := range chunks {
		r := byIndex[c.Rail]
		if r == nil {
			continue
		}
		if t := r.Completion(now, c.Size); t > worst {
			worst = t
		}
	}
	return worst
}
