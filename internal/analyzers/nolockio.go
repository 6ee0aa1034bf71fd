package analyzers

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// NoLockIO enforces the PR 3 submitter invariant: no sync.Mutex or
// sync.RWMutex may be held across a call into the transport —
// fabric.Rail.SendEager/SendControl/SendData, a net.Conn write, or a
// railcore.Transport write (WriteV, Goodbye: the seam both live fabrics'
// streams sit behind, where the facts layer cannot see which one runs). A
// rail write can block indefinitely (dead peer, full ring, congested
// socket); a lock held across it serialises every flow that hashes to
// the same shard behind one stuck destination, which is exactly the
// contention the sharded engine exists to avoid.
//
// The pass walks each function body in source order, tracking which
// mutexes are held: x.Lock()/x.RLock() acquires, x.Unlock()/x.RUnlock()
// releases, `defer x.Unlock()` holds to the end of the function. A
// transport call while any mutex is held is a finding. Function
// literals are analyzed as independent bodies (they run on their own
// goroutine or after the enclosing frame released its locks); a
// literal that itself locks across a send is still caught.
//
// With the facts layer, "transport call" is transitive: a call into any
// function — same package or a dependency — whose exported facts say it
// reaches a fabric send or net.Conn write on its own goroutine is
// treated exactly like the send itself. The PR 6 pass trusted package
// boundaries; a lock held in internal/core across a helper in
// internal/railcore that writes to a link now fires here.
var NoLockIO = &Analyzer{
	Name: "nolockio",
	Doc:  "no mutex may be held across fabric sends or net.Conn writes",
	Run:  runNoLockIO,
}

func runNoLockIO(pass *Pass) {
	for _, fb := range funcBodies(pass.Files, true) {
		checkLockIO(pass, fb)
	}
}

func checkLockIO(pass *Pass, fb funcBody) {
	// held maps a lock expression (as printed source) to the operation
	// that acquired it; deferred release keeps it held to the end.
	type acquisition struct {
		op       string
		deferred bool
	}
	held := make(map[string]acquisition)

	walkSkippingFuncLits(fb.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeferStmt:
			if key, op := mutexOp(pass.Info, st.Call); key != "" {
				switch op {
				case "Unlock", "RUnlock":
					if a, ok := held[key]; ok {
						a.deferred = true
						held[key] = a
					}
				}
			}
			return false // the deferred call itself runs at exit
		case *ast.CallExpr:
			if key, op := mutexOp(pass.Info, st); key != "" {
				switch op {
				case "Lock", "RLock":
					held[key] = acquisition{op: op}
				case "Unlock", "RUnlock":
					if a, ok := held[key]; !ok || !a.deferred {
						delete(held, key)
					}
				}
				return true
			}
			direct := isIOCall(pass.Info, st)
			via := ""
			if !direct {
				if f := pass.Facts.Func(calleeFunc(pass.Info, st)); f != nil && f.IO != "" {
					via = f.IO
				}
			}
			if direct || via != "" {
				if len(held) > 0 {
					keys := make([]string, 0, len(held))
					for k := range held {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					reach := ""
					if via != "" {
						reach = fmt.Sprintf(" (reaches %s)", via)
					}
					pass.Reportf(st.Pos(),
						"transport call%s with %s held — a blocked rail write wedges every flow behind this lock; release before the send (PR 3 submitter invariant)",
						reach, strings.Join(keys, ", "))
				}
			}
		}
		return true
	})
}
