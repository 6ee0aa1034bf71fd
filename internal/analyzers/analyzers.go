// Package analyzers is railvet: a suite of project-specific static
// analysis passes that mechanize the engine's concurrency and hot-path
// invariants — the bug classes every review round used to catch by
// hand (see CHANGES.md, PR 3/5 review-fix lists).
//
// Passes:
//
//   - nolockio: no sync.Mutex/RWMutex may be held across a call into
//     fabric.Rail.SendEager/SendControl/SendData, a net.Conn write, or a
//     write through the rail core's per-link Transport (WriteV, Goodbye).
//     A rail write can block indefinitely (dead peer, full ring); a
//     lock held across it wedges every flow that hashes to the shard.
//   - hotclock: no time.Now/time.Since/time.Until inside functions
//     marked //railvet:hotpath or reachable from one within the same
//     package. Hot paths use internal/clock (runtime.nanotime) —
//     per-frame wall-clock reads pay for machinery they never use.
//   - railup: inside packages core and strategy, iterating a
//     []strategy.RailView must go through an Up-filtering helper
//     (strategy.Usable or a function marked //railvet:upfilter). A
//     raw range resurrects the PR 5 eagerThreshold bug class: a Down
//     rail deciding where live traffic goes.
//   - atomicmix: a struct field accessed through sync/atomic functions
//     must never be read or written plainly anywhere else in the
//     package; mixed access is a data race the race detector only
//     catches when the schedule cooperates.
//   - statsorder: a stats counter a remote ack can observe must be
//     bumped before the transport enqueue in the same function. After
//     the enqueue, the receiver's ack can fire RemoteDone before the
//     counter moves, and a lagging counter reads as a lost message.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf, testdata fixtures with `// want`
// expectations) but is built on the standard library only: this module
// vendors no dependencies, so the x/tools machinery is rebuilt in
// miniature — a loader over `go list -export`, a runner, and a
// unitchecker-protocol shim in cmd/railvet for `go vet -vettool`.
//
// # Annotation grammar
//
// Three comment directives steer the passes:
//
//	//railvet:hotpath
//	    On a function's doc comment: the function (and everything it
//	    calls in its package) is a hot path; hotclock applies.
//
//	//railvet:upfilter
//	    On a function's doc comment: the function returns rail views
//	    that are safe to schedule on — it filters to Up rails itself,
//	    or provably preserves an already-filtered input. railup
//	    accepts ranges over its results and skips its body.
//
//	//railvet:ignore <pass> <justification>
//	    Suppresses <pass> findings on the same line and the next line;
//	    placed in a function's doc comment it covers the whole
//	    function. The justification is mandatory: a bare ignore is
//	    itself a railvet finding.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one railvet pass.
type Analyzer struct {
	// Name identifies the pass in findings and ignore directives.
	Name string
	// Doc is the one-line contract the pass enforces.
	Doc string
	// Run analyzes one package, reporting through pass.Reportf.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Facts holds the cross-package summaries for this package and
	// everything it depends on (and, in whole-module runs, every other
	// module package). May be nil for bare fixture runs.
	Facts FactSet
	// HotRoots maps funcID -> hotpath-root funcID for every function on
	// a hot path, computed over the whole loaded fact set.
	HotRoots map[string]string
	// Escapes holds the package's escape-analysis diagnostics when the
	// driver collected them (go tool compile -m -m); nil means hotalloc
	// has no data and stays silent.
	Escapes []EscapeSite
	// Baseline maps funcID -> tolerated heap-escape count (hotalloc's
	// committed ratchet: only *new* escapes fail).
	Baseline map[string]int

	funcs  *funcFlags
	report func(Diagnostic)
}

// Diagnostic is one finding, before ignore filtering.
type Diagnostic struct {
	Pass    string
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pass: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsHot reports whether fn carries the //railvet:hotpath annotation.
func (p *Pass) IsHot(fn *types.Func) bool { return p.funcs != nil && p.funcs.hot[fn] }

// IsUpfilter reports whether fn carries the //railvet:upfilter
// annotation.
func (p *Pass) IsUpfilter(fn *types.Func) bool { return p.funcs != nil && p.funcs.upfilter[fn] }

// All returns the full railvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NoLockIO,
		HotClock,
		RailUp,
		AtomicMix,
		StatsOrder,
		LockOrder,
		HotAlloc,
	}
}

// ByName resolves one analyzer (cmd/railvet's -run flag).
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ---- shared type/AST helpers ----

// calleeFunc resolves the static callee of a call, or nil (indirect
// calls through function values, type conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// recvType returns the receiver type of a method, nil for plain
// functions.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// declaredIn reports whether t (after pointer unwrapping) is a named
// type declared in a package with the given name.
func declaredIn(t types.Type, pkgName string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName
}

// fabricSendNames are the Rail methods that hand bytes to a transport.
var fabricSendNames = map[string]bool{
	"SendEager":   true,
	"SendControl": true,
	"SendData":    true,
	"SendDataV":   true,
}

// isFabricSend reports whether call is a transport send: a
// SendEager/SendControl/SendData/SendDataV method on a type declared in (or
// implementing the Rail interface of) a package named "fabric".
func isFabricSend(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || !fabricSendNames[fn.Name()] {
		return false
	}
	rt := recvType(fn)
	if rt == nil {
		return false
	}
	if declaredIn(rt, "fabric") {
		return true
	}
	// Concrete fabric implementations (railcore.Rail, under both live
	// fabrics, or a test fabric's): accept any receiver whose package also
	// declares a Rail interface the receiver implements, or — pragmatically
	// — any named type called Rail with the full send-method set.
	if n := namedOf(rt); n != nil && n.Obj().Name() == "Rail" {
		return true
	}
	return false
}

// isNetWrite reports whether call writes to a net.Conn (or net.Buffers):
// the blocking syscall no lock may be held across.
func isNetWrite(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Write", "WriteTo", "ReadFrom":
	default:
		return false
	}
	rt := recvType(fn)
	if rt == nil {
		return false
	}
	return declaredIn(rt, "net")
}

// transportWriteNames are the methods of the rail core's per-link
// Transport that write to the stream and may block on it. TryWrite is not
// one: it never waits, by contract.
var transportWriteNames = map[string]bool{
	"WriteV":  true,
	"Goodbye": true,
}

// isTransportWrite reports whether call writes through the rail core's
// seam: WriteV or Goodbye on a named type called Transport (railcore's
// interface, which every live fabric implements per link). Behind the
// interface the facts layer cannot see which transport runs — a ring
// write that waits for space, a socket write — so the seam itself is the
// blocking write.
func isTransportWrite(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || !transportWriteNames[fn.Name()] {
		return false
	}
	rt := recvType(fn)
	if rt == nil {
		return false
	}
	n := namedOf(rt)
	return n != nil && n.Obj().Name() == "Transport"
}

// isIOCall reports whether call blocks on a transport: a fabric send, a
// net.Conn write, or a write through the rail core's Transport seam.
func isIOCall(info *types.Info, call *ast.CallExpr) bool {
	return isFabricSend(info, call) || isNetWrite(info, call) || isTransportWrite(info, call)
}

// isTransportEnqueue reports whether call hands work to the transport
// or to another core: a transport write, or a call handed a function
// literal — a pool task such as progress.Task{Run: ...} — that will
// perform one.
func isTransportEnqueue(info *types.Info, call *ast.CallExpr) bool {
	if isIOCall(info, call) {
		return true
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && isIOCall(info, c) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// mutexOp classifies a call as a mutex operation on sync.Mutex or
// sync.RWMutex, returning the lock expression's printed form as key.
func mutexOp(info *types.Info, call *ast.CallExpr) (key, op string) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	rt := recvType(fn)
	if rt == nil {
		return "", ""
	}
	n := namedOf(rt)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return "", ""
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return types.ExprString(sel.X), fn.Name()
}

// isRailViewSlice reports whether t is []RailView with RailView
// declared in a package named "strategy".
func isRailViewSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	n := namedOf(sl.Elem())
	if n == nil || n.Obj().Name() != "RailView" || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == "strategy"
}

// timeCallNames are the wall-clock reads hotclock rejects.
var timeCallNames = map[string]bool{"Now": true, "Since": true, "Until": true}

// isTimeCall reports whether call reads the wall clock via package time.
func isTimeCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return "", false
	}
	if !timeCallNames[fn.Name()] {
		return "", false
	}
	return "time." + fn.Name(), true
}

// funcBodies yields every function body in the file set: declared
// functions and, when includeLits is set, function literals as
// independent bodies (their enclosing declaration is reported as
// context). Nested literals are not re-visited by the enclosing walk.
type funcBody struct {
	decl *ast.FuncDecl // nil for a literal without an enclosing decl
	body *ast.BlockStmt
	lit  bool
}

func funcBodies(files []*ast.File, separateLits bool) []funcBody {
	var out []funcBody
	for _, f := range files {
		for _, d := range f.Decls {
			switch decl := d.(type) {
			case *ast.FuncDecl:
				if decl.Body == nil {
					continue
				}
				out = append(out, funcBody{decl: decl, body: decl.Body})
				if separateLits {
					ast.Inspect(decl.Body, func(n ast.Node) bool {
						if fl, ok := n.(*ast.FuncLit); ok {
							out = append(out, funcBody{decl: decl, body: fl.Body, lit: true})
						}
						return true
					})
				}
			case *ast.GenDecl:
				// Function literals nested in top-level composite
				// literals (handler tables, `var hooks = []func(){...}`)
				// are bodies too — without this they escaped every
				// body-scoped pass.
				if !separateLits {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						out = append(out, funcBody{body: fl.Body, lit: true})
					}
					return true
				})
			}
		}
	}
	return out
}

// walkSkippingFuncLits walks body in source order, not descending into
// nested function literals.
func walkSkippingFuncLits(body ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// describePos renders a short file:line for cross-referencing in
// messages.
func describePos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
