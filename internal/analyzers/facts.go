package analyzers

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// The facts layer is what makes railvet a *whole-program* checker: each
// package exports a compact summary of its functions — does this
// function (transitively) read the wall clock, does it (transitively)
// perform a blocking transport write, is it a //railvet:hotpath root,
// and what does it statically call — and every dependent package's
// analysis consumes the summaries of its dependencies. PR 6's passes
// stopped at package boundaries and trusted annotations; with facts,
// hotclock follows a hot path from internal/core through
// internal/progress into the fabrics, and nolockio flags a lock held
// across a call into *any* function that eventually writes to a rail.
//
// Facts flow bottom-up (dependencies first), which the two drivers
// realise differently:
//
//   - The standalone driver (cmd/railvet, the CI gate) loads the whole
//     module in dependency order, computes facts for every package —
//     dependency-only packages are parsed and type-checked just for
//     their facts — and then runs a global top-down reachability from
//     every hotpath root over the exported call edges, so a function in
//     pkg B called only from a hot loop in pkg A is analyzed as hot.
//   - The `go vet -vettool` path serializes facts as JSON into the
//     .vetx file the go command already threads through the build
//     cache (PackageVetx in, VetxOutput out). Dependency facts are
//     available there too, but the global hot set degenerates to
//     "annotated roots plus reachability" since a unitchecker never
//     sees its dependents.
//
// Function identity is types.Func.Origin().FullName() — Origin so a
// generic instantiation observed through export data matches the fact
// computed from the generic source declaration.

// FuncFact is one function's exported summary.
type FuncFact struct {
	// Hot marks a //railvet:hotpath annotation on the declaration.
	Hot bool `json:"hot,omitempty"`
	// Time is non-empty when the function transitively reaches a
	// wall-clock read (time.Now/Since/Until); it describes where.
	Time string `json:"time,omitempty"`
	// IO is non-empty when the function transitively performs a
	// blocking transport write (fabric send or net.Conn write) on its
	// own goroutine; it describes where. Function literals are excluded:
	// a closure handed to a scheduler runs on someone else's stack.
	IO string `json:"io,omitempty"`
	// Locks is non-empty when the function acquires a sync mutex
	// somewhere in its body (not transitively) — lockorder uses it to
	// spot shard locks held across calls into other locking subsystems.
	Locks string `json:"locks,omitempty"`
	// Calls lists the function's static callees and referenced
	// functions (method values included) by funcID, restricted to
	// packages with facts — the edges the global hot walk follows.
	Calls []string `json:"calls,omitempty"`
}

// PkgFacts is one package's exported fact set.
type PkgFacts struct {
	Path  string               `json:"path"`
	Funcs map[string]*FuncFact `json:"funcs"`
}

// FactSet maps package import paths to their facts.
type FactSet map[string]*PkgFacts

// funcID returns the stable cross-package identity of a function.
func funcID(fn *types.Func) string { return fn.Origin().FullName() }

// Func resolves a function's fact across the set, or nil.
func (fs FactSet) Func(fn *types.Func) *FuncFact {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	pf := fs[fn.Pkg().Path()]
	if pf == nil {
		return nil
	}
	return pf.Funcs[funcID(fn)]
}

// EncodeFacts serializes facts for the vetx cache (deterministically:
// map keys sort on marshal).
func EncodeFacts(pf *PkgFacts) ([]byte, error) { return json.Marshal(pf) }

// DecodeFacts parses a vetx facts file; empty input (a pre-facts vetx
// stamp, or another tool's file) yields nil facts without error.
func DecodeFacts(data []byte) (*PkgFacts, error) {
	if len(data) == 0 {
		return nil, nil
	}
	pf := new(PkgFacts)
	if err := json.Unmarshal(data, pf); err != nil {
		return nil, fmt.Errorf("decoding railvet facts: %v", err)
	}
	return pf, nil
}

// ComputeFacts builds pkg's facts given the (already transitively
// closed) facts of its dependencies.
func ComputeFacts(pkg *Package, deps FactSet) *PkgFacts {
	dirs := scanDirectives(pkg.Fset, pkg.Files, pkg.Info, allPassNames())
	pf := &PkgFacts{Path: pkg.PkgPath, Funcs: make(map[string]*FuncFact)}

	decls := declaredFuncs(pkg.Files, pkg.Info)
	ids := make(map[*types.Func]string, len(decls))
	for fn := range decls {
		ids[fn] = funcID(fn)
	}

	// Local call edges, kept per graph flavour: the time graph includes
	// function literals (a closure built on a hot path runs on it) and
	// bare function references (method values: `f := e.now; f()`); the
	// IO graph includes only actual calls outside literals.
	timeEdges := make(map[*types.Func][]*types.Func)
	ioEdges := make(map[*types.Func][]*types.Func)

	for fn, fd := range decls {
		fact := &FuncFact{Hot: dirs.flags.hot[fn]}
		pf.Funcs[ids[fn]] = fact
		callSet := make(map[string]bool)

		// Time graph: every identifier resolving to a function counts as
		// an edge — this is what lets hotclock follow `defer t.stamp()`
		// and method-value references.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			ref, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if ref.Pkg() != nil && ref.Pkg().Path() == "time" && timeCallNames[ref.Name()] {
				if fact.Time == "" {
					fact.Time = "time." + ref.Name() + " at " + describePos(pkg.Fset, id.Pos())
				}
				return true
			}
			switch {
			case ref.Pkg() == pkg.Pkg:
				timeEdges[fn] = append(timeEdges[fn], ref)
				callSet[funcID(ref)] = true
			default:
				if f := deps.Func(ref); f != nil {
					if f.Time != "" && fact.Time == "" {
						fact.Time = "via " + funcID(ref) + " (" + f.Time + ")"
					}
					callSet[funcID(ref)] = true
				}
			}
			return true
		})

		// IO graph and direct lock acquisitions: calls only, literals
		// excluded (they execute on whatever goroutine invokes them —
		// nolockio analyzes each literal as its own body).
		walkSkippingFuncLits(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, op := mutexOp(pkg.Info, call); key != "" {
				if (op == "Lock" || op == "RLock") && fact.Locks == "" {
					fact.Locks = key + "." + op + " at " + describePos(pkg.Fset, call.Pos())
				}
				return true
			}
			if isIOCall(pkg.Info, call) {
				if fact.IO == "" {
					fact.IO = "transport write at " + describePos(pkg.Fset, call.Pos())
				}
				return true
			}
			callee := calleeFunc(pkg.Info, call)
			if callee == nil {
				return true
			}
			if callee.Pkg() == pkg.Pkg {
				ioEdges[fn] = append(ioEdges[fn], callee)
			} else if f := deps.Func(callee); f != nil && f.IO != "" && fact.IO == "" {
				fact.IO = "via " + funcID(callee) + " (" + f.IO + ")"
			}
			return true
		})

		for id := range callSet {
			fact.Calls = append(fact.Calls, id)
		}
		sort.Strings(fact.Calls)
	}

	// Close Time and IO over the in-package edges (dependency facts are
	// already closed, so one in-package fixpoint finishes the job).
	propagate := func(edges map[*types.Func][]*types.Func, get func(*FuncFact) string, set func(*FuncFact, string)) {
		for changed := true; changed; {
			changed = false
			for fn := range decls {
				fact := pf.Funcs[ids[fn]]
				if get(fact) != "" {
					continue
				}
				for _, callee := range edges[fn] {
					cf := pf.Funcs[ids[callee]]
					if cf == nil || get(cf) == "" {
						continue
					}
					set(fact, "via "+ids[callee]+" ("+get(cf)+")")
					changed = true
					break
				}
			}
		}
	}
	propagate(timeEdges, func(f *FuncFact) string { return f.Time }, func(f *FuncFact, v string) { f.Time = v })
	propagate(ioEdges, func(f *FuncFact) string { return f.IO }, func(f *FuncFact, v string) { f.IO = v })
	return pf
}

// GlobalHot walks the exported call graph top-down from every hotpath
// root in the set and returns funcID -> root funcID for every function
// on a hot path. With the whole module loaded this is the program-wide
// hot set; with only a dependency slice it degenerates gracefully.
func GlobalHot(fs FactSet) map[string]string {
	callees := make(map[string][]string)
	rootOf := make(map[string]string)
	var queue []string
	for _, pf := range fs {
		for id, fact := range pf.Funcs {
			callees[id] = fact.Calls
			if fact.Hot {
				rootOf[id] = id
				queue = append(queue, id)
			}
		}
	}
	sort.Strings(queue) // deterministic root attribution
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, callee := range callees[id] {
			if _, seen := rootOf[callee]; seen {
				continue
			}
			if _, known := callees[callee]; !known {
				continue
			}
			rootOf[callee] = rootOf[id]
			queue = append(queue, callee)
		}
	}
	return rootOf
}

// declaredFuncs maps every declared function with a body to its decl.
func declaredFuncs(files []*ast.File, info *types.Info) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// allPassNames is the registered pass-name set (directive validation
// during fact computation). Spelled as a literal rather than derived
// from All() to avoid an initialization cycle through the analyzer
// vars; TestAllPassNames keeps it in sync.
func allPassNames() map[string]bool {
	return map[string]bool{
		"nolockio":   true,
		"hotclock":   true,
		"railup":     true,
		"atomicmix":  true,
		"statsorder": true,
		"lockorder":  true,
		"hotalloc":   true,
	}
}
