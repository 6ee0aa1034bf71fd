package railcore

import (
	"fmt"
	"strings"

	"repro/internal/fabric"
)

// home is where a rail serves: a node and the rail's index in it. A rail
// publishes it whole, behind one atomic pointer, so its reader (once per
// frame) and its writer and senders (when they report telemetry or health)
// each load one consistent pair.
type home struct {
	node  *Node
	index int
}

// adopt makes n the home of r, at n's next index.
func (n *Node) adopt(r *Rail) {
	r.home.Store(&home{node: n, index: len(n.rails)})
	n.rails = append(n.rails, r)
}

// corer is a fabric built on the rail core; livenet.Fabric and
// shmnet.Fabric have it by embedding *Fabric.
type corer interface{ core() *Fabric }

func (c *Fabric) core() *Fabric { return c }

// Join merges parts — live fabrics on the rail core, c's own among them —
// into one rail set, for fabric.NewMix: node i of the result is one Node
// whose rails are those of every part's node i, in part order, with one
// sink, placer, telemetry sink, frame pool and health tracker. Only the
// rails' homes change; each keeps its owner, so links, goroutines and
// transports run on as before, and the parts' FailRail, DropLink and
// ThrottleRail still address rails by their own indices. local is the
// node this process hosts (-1: all), as every part was built with.
//
// The parts may already be carrying traffic: a distributed peer can send
// before this process joins, and no frame is lost, duplicated or
// reordered (see Node.join).
func (c *Fabric) Join(local int, parts ...fabric.Fabric) (fabric.Fabric, error) {
	j := &joined{parts: parts}
	cfg := Config{Nodes: c.cfg.Nodes, Local: local}
	var names []string
	for _, p := range parts {
		pc, ok := p.(corer)
		if !ok {
			return nil, fmt.Errorf("railcore: cannot join %T: not a live rail-core fabric", p)
		}
		core := pc.core()
		if core.env != c.env || core.cfg.Nodes != cfg.Nodes || core.cfg.Local != local {
			return nil, fmt.Errorf("railcore: cannot join %s: another environment, node count or hosted node", core.cfg.Name)
		}
		j.cores = append(j.cores, core)
		names = append(names, core.cfg.Name)
		cfg.Rails += core.cfg.Rails
	}
	cfg.Name = strings.Join(names, "+")
	j.Fabric = newCore(c.env, cfg)
	for i, n := range j.nodes {
		if !n.Hosted() {
			continue
		}
		for _, core := range j.cores {
			n.join(core.nodes[i])
		}
	}
	return j, nil
}

// join re-homes old's rails in n, after the ones n already holds. A reader
// that loaded a rail's old home just before the move delivers into old;
// old's sink, installed before any rail moves, hands those stragglers on
// with the index remapped — and first drains what old's RecvQ holds — so
// every frame reaches n once and, per link, in order. Rail states other
// than Up carry over.
func (n *Node) join(old *Node) {
	off := len(n.rails)
	old.SetSink(func(d *fabric.Delivery) {
		d.Rail += off
		n.Deliver(d)
	})
	for r, rail := range old.rails {
		n.adopt(rail)
		if s := old.health.State(r); s != fabric.RailUp {
			n.health.Report(off+r, s, old.health.Reason(r))
		}
	}
}

// joined is the fabric Join returns: a core with no links of its own,
// whose nodes hold the parts' rails. Close and Err go to the parts.
type joined struct {
	*Fabric
	parts []fabric.Fabric
	cores []*Fabric
}

// Close closes every part, in rail order, and returns the first error.
func (j *joined) Close() error {
	var first error
	for _, p := range j.parts {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Err returns the first transport error of the parts, in rail order.
func (j *joined) Err() error {
	for _, c := range j.cores {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}
