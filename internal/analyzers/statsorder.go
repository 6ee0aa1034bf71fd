package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// StatsOrder enforces the PR 5 "eager stats before enqueue" fix as a
// standing rule: in any function that hands a frame to the transport
// (a fabric Rail send, a net.Conn write, or a pool task submission that
// will perform one), stats counters must be bumped BEFORE the enqueue.
// The moment the frame is enqueued, the receiver can process it and
// its ack can fire RemoteDone on another worker; a counter that lags
// remote completion reads as a lost message to any observer that
// checks stats after waiting for the ack.
//
// A "stats counter" is an atomic Add/Store reached through a selector
// chain that passes a field named "stats" (the engine's convention) or
// a struct type named *Counters. Function literals are independent
// bodies: a closure enqueued to run elsewhere orders its own effects.
var StatsOrder = &Analyzer{
	Name: "statsorder",
	Doc:  "remotely observable stats must be bumped before the transport enqueue",
	Run:  runStatsOrder,
}

func runStatsOrder(pass *Pass) {
	for _, fb := range funcBodies(pass.Files, true) {
		checkStatsOrder(pass, fb)
	}
}

func checkStatsOrder(pass *Pass, fb funcBody) {
	var firstEnqueue *ast.CallExpr
	walkSkippingFuncLits(fb.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isTransportEnqueue(pass.Info, call) {
			if firstEnqueue == nil {
				firstEnqueue = call
			}
			return true
		}
		if firstEnqueue == nil {
			return true
		}
		if statsCounterBump(pass.Info, call) {
			pass.Reportf(call.Pos(),
				"stats counter bumped after the transport enqueue at %s — the receiver's ack can observe the counter before it moves; bump before enqueueing (PR 5 eager-stats bug class)",
				describePos(pass.Fset, firstEnqueue.Pos()))
		}
		return true
	})
}

// statsCounterBump reports whether call mutates a stats counter: a
// typed-atomic Add/Store (or a sync/atomic Add*/Store* by address)
// whose target is reached through a field named "stats" or a struct
// type named *Counters/*counters.
func statsCounterBump(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	// atomic.AddUint64(&e.stats.n, 1) form (package-level functions
	// only: the typed-atomic methods also live in sync/atomic).
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && recvType(fn) == nil && isAtomicOpName(fn.Name()) {
		if strings.HasPrefix(fn.Name(), "Add") || strings.HasPrefix(fn.Name(), "Store") {
			for _, arg := range call.Args {
				if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok {
					if isStatsChain(info, un.X) {
						return true
					}
				}
			}
		}
		return false
	}
	// e.stats.n.Add(1) form: a method on the typed atomics.
	switch fn.Name() {
	case "Add", "Store":
	default:
		return false
	}
	rt := recvType(fn)
	if rt == nil {
		return false
	}
	n := namedOf(rt)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync/atomic" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return isStatsChain(info, sel.X)
}

// isStatsChain reports whether the selector chain of expr passes a
// field named "stats" or a type named like a counters struct.
func isStatsChain(info *types.Info, expr ast.Expr) bool {
	for {
		sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if sel.Sel.Name == "stats" {
			return true
		}
		if tv, ok := info.Types[sel]; ok {
			if n := namedOf(tv.Type); n != nil {
				name := strings.ToLower(n.Obj().Name())
				if strings.HasSuffix(name, "counters") {
					return true
				}
			}
		}
		expr = sel.X
	}
}
