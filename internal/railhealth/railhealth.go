// Package railhealth tracks the health of a node's rails. It is the
// shared implementation of the fabric.Health contract used by every
// fabric: the live rail core (internal/railcore, under livenet and
// shmnet) reports transport faults, kills and reconnections into it,
// internal/simnet drives it from deterministic fault injection
// (FailRail), and internal/core subscribes to its transition feed to
// re-plan in-flight transfers when a rail dies.
//
// State machine per rail:
//
//	Up ──fault──▶ Suspect ──recovery exhausted──▶ Down
//	 ▲               │                              │
//	 └──reconnected──┘              Enable / repair─┘
//
// An administrative Disable (planned hot-unplug) forces Down and pins
// the rail there: transport-level reports cannot resurrect it until
// Enable lifts the pin. All transitions are published, in order, to
// every subscriber queue.
package railhealth

import (
	"fmt"
	"sync"

	"repro/internal/fabric"
	"repro/internal/rt"
)

// Tracker is one node's rail-health state (implements fabric.Health).
type Tracker struct {
	env  rt.Env
	node int

	mu      sync.Mutex
	states  []fabric.RailState
	reasons []string
	admin   []bool // pinned Down by Disable
	// transitions[rail][state] counts how many times the rail *entered*
	// the state. Bumped in set() under mu — synchronous with event
	// publication, so the counts always agree with the transition feed.
	transitions [][numRailStates]uint64
	subs        []rt.Queue
	onEnable    func(rail int)
}

// numRailStates bounds the fabric.RailState enum (Up, Suspect, Down)
// for the per-rail transition-count arrays.
const numRailStates = int(fabric.RailDown) + 1

// New returns a tracker for a node with nrails rails, all Up.
func New(env rt.Env, node, nrails int) *Tracker {
	return &Tracker{
		env:         env,
		node:        node,
		states:      make([]fabric.RailState, nrails),
		reasons:     make([]string, nrails),
		admin:       make([]bool, nrails),
		transitions: make([][numRailStates]uint64, nrails),
	}
}

// SetOnEnable registers a fabric hook invoked (outside the tracker lock)
// after Enable lifts an administrative pin — livenet uses it to kick
// reconnection of links that died while the rail was disabled.
func (t *Tracker) SetOnEnable(fn func(rail int)) {
	t.mu.Lock()
	t.onEnable = fn
	t.mu.Unlock()
}

// State returns the current state of one rail.
func (t *Tracker) State(rail int) fabric.RailState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.states[rail]
}

// States returns a snapshot of every rail's state.
func (t *Tracker) States() []fabric.RailState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]fabric.RailState(nil), t.states...)
}

// Reason returns the cause recorded with the rail's last transition.
func (t *Tracker) Reason(rail int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reasons[rail]
}

// Subscribe returns a fresh queue receiving a *fabric.RailEvent per
// subsequent transition. The caller is the queue's single consumer.
func (t *Tracker) Subscribe() rt.Queue {
	q := t.env.NewQueue()
	t.mu.Lock()
	t.subs = append(t.subs, q)
	t.mu.Unlock()
	return q
}

// Report records a transport-observed transition (fault, recovery). It
// is a no-op — returning false — when the state is unchanged or the rail
// is administratively pinned Down.
func (t *Tracker) Report(rail int, s fabric.RailState, reason string) bool {
	t.mu.Lock()
	if t.admin[rail] || t.states[rail] == s {
		t.mu.Unlock()
		return false
	}
	t.set(rail, s, reason)
	return true // set released the lock
}

// Disable administratively forces the rail Down and pins it there
// (planned hot-unplug). Idempotent.
func (t *Tracker) Disable(rail int, reason string) {
	if reason == "" {
		reason = "admin"
	}
	t.mu.Lock()
	if t.admin[rail] {
		t.mu.Unlock()
		return
	}
	t.admin[rail] = true
	if t.states[rail] == fabric.RailDown {
		t.reasons[rail] = reason
		t.mu.Unlock()
		return
	}
	t.set(rail, fabric.RailDown, reason)
}

// Enable lifts an administrative pin (or repairs an injected fault) and
// returns the rail to Up, notifying subscribers. The fabric's OnEnable
// hook then runs, so transports can re-establish dead links.
func (t *Tracker) Enable(rail int) {
	t.mu.Lock()
	t.admin[rail] = false
	hook := t.onEnable
	if t.states[rail] == fabric.RailUp {
		t.mu.Unlock()
	} else {
		t.set(rail, fabric.RailUp, "enabled")
	}
	if hook != nil {
		hook(rail)
	}
}

// Transitions returns how many times the rail has entered the given
// state since the tracker was created. The initial all-Up construction
// is not a transition; counts move in lockstep with the Subscribe feed
// (the metrics plane's nm_rail_transitions_total family reads this).
func (t *Tracker) Transitions(rail int, s fabric.RailState) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rail < 0 || rail >= len(t.transitions) || int(s) >= numRailStates {
		return 0
	}
	return t.transitions[rail][s]
}

// NumRails returns the number of rails the tracker covers.
func (t *Tracker) NumRails() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.states)
}

// AdminDown reports whether the rail is pinned Down by Disable.
func (t *Tracker) AdminDown(rail int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.admin[rail]
}

// set applies a transition and publishes it. Called with t.mu held;
// releases it (events are pushed outside the lock so subscriber queues
// never nest under it).
func (t *Tracker) set(rail int, s fabric.RailState, reason string) {
	t.states[rail] = s
	t.reasons[rail] = reason
	if int(s) < numRailStates {
		t.transitions[rail][s]++
	}
	subs := append([]rt.Queue(nil), t.subs...)
	ev := &fabric.RailEvent{Node: t.node, Rail: rail, State: s, At: t.env.Now(), Reason: reason}
	t.mu.Unlock()
	for _, q := range subs {
		q.Push(ev)
	}
}

// String renders the tracker for diagnostics.
func (t *Tracker) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("railhealth{node=%d states=%v}", t.node, t.states)
}

var _ fabric.Health = (*Tracker)(nil)
