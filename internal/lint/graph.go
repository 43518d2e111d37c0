package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the interprocedural value-flow IR every analyzer with
// NeedsProgram runs on. The IR is a graph over abstract value
// nodes:
//
//   - one node per named value object (locals, parameters, package variables,
//     struct fields — field-based: one node per field declaration, shared by
//     every instance);
//   - one node per (function, result-index) pair, representing the i-th
//     return value of that function across all call sites.
//
// Edges record "value may flow from → to"; the taint engine asks only which
// nodes a source reaches. Flows through assignments, returns, call
// arguments, struct-field reads/writes, composite literals, channel
// sends/receives, and slice/map element accesses are modeled; the analysis
// is flow-insensitive and context-insensitive (one summary node set per
// function, shared by all call sites), which is conservative in the taint
// direction. Closure result values are the one documented hole: a
// FuncLit's returns have no result node, so taint returned out of a closure
// is dropped (taint flowing *into* closures and sinks *inside* closure
// bodies are still tracked).
type node struct {
	obj types.Object // named value; nil for result nodes
	fn  *types.Func  // owning function, for result nodes
	idx int          // result index, for result nodes
}

// resultNode names the i-th result of fn.
func resultNode(fn *types.Func, i int) node { return node{fn: fn, idx: i} }

// objNode names a variable/parameter/field object.
func objNode(obj types.Object) node { return node{obj: obj} }

// Flow is one abstract value a given expression may have been derived from.
type Flow struct {
	n node
}

// funcBody locates the declaration of a function that has a body in the
// loaded program.
type funcBody struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// Program is the whole-module view the interprocedural analyzers share: the
// value-flow graph, the function-declaration index, and the static call
// graph. Build once per Run via BuildProgram.
type Program struct {
	pkgs   []*Package
	byPath map[string]*Package

	fns   map[*types.Func]*funcBody
	edges map[node][]node

	// callees is the static call graph: for each function with a body, the
	// set of functions it calls directly (interface callees resolve to the
	// interface method object).
	callees map[*types.Func]map[*types.Func]bool

	taintCache map[string]TaintMap

	// conc memoizes the concurrency-fact database (see conc.go), built on
	// first use by a concurrency analyzer.
	conc *concFacts

	// hotReached memoizes the functions reachable from a `// hot` root (see
	// hotalloc.go), built on first use by hotalloc.
	hotReached map[*types.Func]hotReach
}

// BuildProgram constructs the value-flow graph over the loaded packages.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		pkgs:       pkgs,
		byPath:     make(map[string]*Package),
		fns:        make(map[*types.Func]*funcBody),
		edges:      make(map[node][]node),
		callees:    make(map[*types.Func]map[*types.Func]bool),
		taintCache: make(map[string]TaintMap),
	}
	for _, pkg := range pkgs {
		p.byPath[pkg.Path] = pkg
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.fns[fn] = &funcBody{pkg: pkg, decl: fd}
				}
			}
		}
	}
	for _, pkg := range pkgs {
		ev := &evaluator{prog: p, pkg: pkg}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn != nil {
					ev.buildFunc(fn, fd)
				}
			}
		}
		// Package-level variable initializers flow into their variables.
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							obj := pkg.Info.Defs[name]
							if obj != nil {
								ev.addFlows(ev.origins(vs.Values[i]), objNode(obj))
							}
						}
					}
				}
			}
		}
	}
	return p
}

// Package returns the loaded package with the given import path, or nil.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// Packages returns the loaded packages, sorted by import path.
func (p *Program) Packages() []*Package { return p.pkgs }

// HasBody reports whether fn's declaration (with body) was loaded.
func (p *Program) HasBody(fn *types.Func) bool { return p.fns[fn] != nil }

// Callees returns fn's direct static callees, sorted by full name.
func (p *Program) Callees(fn *types.Func) []*types.Func {
	set := p.callees[fn]
	out := make([]*types.Func, 0, len(set))
	for c := range set { // key extraction: sorted below
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

func (p *Program) addEdge(from Flow, to node) {
	if from.n == (node{}) || to == (node{}) {
		return
	}
	p.edges[from.n] = append(p.edges[from.n], to)
}

// evaluator walks one package's functions, adding edges to the program graph
// and computing expression origins.
type evaluator struct {
	prog *Program
	pkg  *Package
}

func (ev *evaluator) addFlows(flows []Flow, to node) {
	for _, f := range flows {
		ev.prog.addEdge(f, to)
	}
}

// buildFunc adds the edges induced by one function declaration: named-result
// wiring, statement-level flows, and call-site argument bindings.
func (ev *evaluator) buildFunc(fn *types.Func, fd *ast.FuncDecl) {
	// Named results flow into the function's result nodes (covers naked
	// returns).
	if fd.Type.Results != nil {
		idx := 0
		for _, field := range fd.Type.Results.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := ev.pkg.Info.Defs[name]; obj != nil {
					ev.prog.addEdge(Flow{n: objNode(obj)}, resultNode(fn, idx))
				}
				idx++
			}
		}
	}
	// fnStack tracks the enclosing function for return statements; FuncLit
	// bodies push nil (closure results have no node — see the package
	// comment).
	fnStack := []*types.Func{fn}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fnStack = append(fnStack, nil)
			ast.Inspect(n.Body, walk)
			fnStack = fnStack[:len(fnStack)-1]
			return false
		case *ast.AssignStmt:
			ev.buildAssign(n)
		case *ast.SendStmt:
			ev.addFlows(ev.origins(n.Value), ev.lvalueNode(n.Chan))
		case *ast.ReturnStmt:
			cur := fnStack[len(fnStack)-1]
			if cur == nil || len(n.Results) == 0 {
				return true
			}
			if len(n.Results) == 1 && cur.Type().(*types.Signature).Results().Len() > 1 {
				// return f() forwarding a tuple.
				for i, fl := range ev.callResults(n.Results[0], cur.Type().(*types.Signature).Results().Len()) {
					for _, f := range fl {
						ev.prog.addEdge(f, resultNode(cur, i))
					}
				}
				return true
			}
			for i, res := range n.Results {
				ev.addFlows(ev.origins(res), resultNode(cur, i))
			}
		case *ast.RangeStmt:
			src := ev.origins(n.X)
			for _, lhs := range []ast.Expr{n.Key, n.Value} {
				if lhs != nil {
					ev.addFlows(src, ev.lvalueNode(lhs))
				}
			}
		case *ast.CallExpr:
			ev.buildCall(n)
		case *ast.CompositeLit:
			ev.buildCompositeLit(n)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// buildAssign adds edges for one assignment statement, including tuple
// assignments from calls, type assertions, map reads, and channel receives.
func (ev *evaluator) buildAssign(n *ast.AssignStmt) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		rhs := n.Rhs[0]
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			for i, fl := range ev.callResultFlows(call, len(n.Lhs)) {
				if i < len(n.Lhs) {
					ev.addFlows(fl, ev.lvalueNode(n.Lhs[i]))
				}
			}
			return
		}
		// v, ok := m[k] / <-ch / x.(T): both targets derive from the operand.
		src := ev.origins(rhs)
		for _, lhs := range n.Lhs {
			ev.addFlows(src, ev.lvalueNode(lhs))
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i < len(n.Rhs) {
			ev.addFlows(ev.origins(n.Rhs[i]), ev.lvalueNode(lhs))
		}
	}
}

// buildCall binds argument flows to parameter nodes for calls whose callee
// is statically known and has a loaded body, and records the call edge.
func (ev *evaluator) buildCall(call *ast.CallExpr) {
	fn := ev.staticCallee(call)
	if fn == nil {
		return
	}
	ev.recordCallEdge(call, fn)
	body := ev.prog.fns[fn]
	if body == nil {
		return
	}
	fd := body.decl
	// Receiver binding.
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := body.pkg.Info.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
				ev.addFlows(ev.origins(sel.X), objNode(obj))
			}
		}
	}
	// Parameter binding (variadic tail args all bind the final parameter).
	params := paramObjs(body.pkg, fd)
	for i, arg := range call.Args {
		j := i
		if j >= len(params) {
			j = len(params) - 1
		}
		if j >= 0 && params[j] != nil {
			ev.addFlows(ev.origins(arg), objNode(params[j]))
		}
	}
}

// recordCallEdge adds caller→callee to the static call graph, attributing
// calls inside closures to the enclosing declared function.
func (ev *evaluator) recordCallEdge(call *ast.CallExpr, callee *types.Func) {
	caller := ev.enclosingFunc(call.Pos())
	if caller == nil {
		return
	}
	set := ev.prog.callees[caller]
	if set == nil {
		set = make(map[*types.Func]bool)
		ev.prog.callees[caller] = set
	}
	set[callee] = true
}

// enclosingFunc finds the declared function whose body spans pos.
func (ev *evaluator) enclosingFunc(pos token.Pos) *types.Func {
	for _, f := range ev.pkg.Files {
		if f.Pos() <= pos && pos <= f.End() {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fd.Body.Pos() <= pos && pos <= fd.Body.End() {
					fn, _ := ev.pkg.Info.Defs[fd.Name].(*types.Func)
					return fn
				}
			}
		}
	}
	return nil
}

// buildCompositeLit wires element values into field nodes (struct literals)
// so T{F: v} taints field F the same way t.F = v does.
func (ev *evaluator) buildCompositeLit(lit *ast.CompositeLit) {
	tv, ok := ev.pkg.Info.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				if fobj, ok := ev.pkg.Info.Uses[key].(*types.Var); ok {
					ev.addFlows(ev.origins(kv.Value), objNode(fobj))
				}
			}
			continue
		}
		if i < st.NumFields() {
			ev.addFlows(ev.origins(elt), objNode(st.Field(i)))
		}
	}
}

// lvalueNode resolves an assignment target to its abstract node: the object
// for identifiers, the field object for selectors, and the container's base
// for index/star/paren forms (element writes taint the container).
func (ev *evaluator) lvalueNode(lhs ast.Expr) node {
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return node{}
		}
		if obj := ev.pkg.Info.Defs[x]; obj != nil {
			return objNode(obj)
		}
		if obj := ev.pkg.Info.Uses[x]; obj != nil {
			return objNode(obj)
		}
	case *ast.SelectorExpr:
		if sel, ok := ev.pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return objNode(sel.Obj())
		}
		if obj := ev.pkg.Info.Uses[x.Sel]; obj != nil {
			return objNode(obj)
		}
	case *ast.IndexExpr:
		return ev.lvalueNode(x.X)
	case *ast.StarExpr:
		return ev.lvalueNode(x.X)
	case *ast.ParenExpr:
		return ev.lvalueNode(x.X)
	}
	return node{}
}

// staticCallee resolves the *types.Func a call targets, if any: declared
// functions, methods (through the static receiver type), and interface
// methods (the interface's method object). Calls through plain function
// values and closures return nil.
func (ev *evaluator) staticCallee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := ev.pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := ev.pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := ev.pkg.Info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// callResultFlows returns, per result index, the flows a call expression's
// results derive from. Known callees contribute their result nodes; callees
// without a loaded body (stdlib, interface methods, function values)
// additionally pass their arguments through, conservatively.
func (ev *evaluator) callResultFlows(call *ast.CallExpr, nresults int) [][]Flow {
	out := make([][]Flow, nresults)
	fn := ev.staticCallee(call)
	var passthrough []Flow
	if fn == nil || ev.prog.fns[fn] == nil {
		passthrough = ev.argPassthrough(call)
	}
	for i := range out {
		if fn != nil {
			out[i] = append(out[i], Flow{n: resultNode(fn, i)})
		}
		out[i] = append(out[i], passthrough...)
	}
	return out
}

// callResults is callResultFlows for an expression expected to be a call;
// non-calls degrade to origins on every index.
func (ev *evaluator) callResults(e ast.Expr, nresults int) [][]Flow {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return ev.callResultFlows(call, nresults)
	}
	out := make([][]Flow, nresults)
	src := ev.origins(e)
	for i := range out {
		out[i] = src
	}
	return out
}

// argPassthrough unions the origins of a call's arguments (and method
// receiver), the conservative model for callees we cannot see into.
func (ev *evaluator) argPassthrough(call *ast.CallExpr) []Flow {
	var flows []Flow
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// Method value receiver (skip package qualifiers, which resolve to
		// no value origins anyway).
		flows = append(flows, ev.origins(sel.X)...)
	}
	for _, arg := range call.Args {
		flows = append(flows, ev.origins(arg)...)
	}
	return flows
}

// paramObjs collects the parameter objects of a function declaration, in
// order.
func paramObjs(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, pkg.Info.Defs[name])
		}
	}
	return out
}

// origins computes the abstract values an expression may be derived from.
// This is the expression-level half of the dataflow engine; the graph edges
// built above are its statement-level half.
func (ev *evaluator) origins(e ast.Expr) []Flow {
	info := ev.pkg.Info
	switch x := e.(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			switch obj.(type) {
			case *types.Var:
				return []Flow{{n: objNode(obj)}}
			}
		}
		return nil
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			// Field read: the field node alone. Field nodes are shared across
			// instances, so a tainted write to any instance's field reaches
			// every read; adding the container's own taint here would make
			// one tainted field contaminate all of its siblings through the
			// container (field-insensitivity blowup).
			return []Flow{{n: objNode(sel.Obj())}}
		}
		if obj, ok := info.Uses[x.Sel].(*types.Var); ok {
			return []Flow{{n: objNode(obj)}}
		}
		return nil
	case *ast.ParenExpr:
		return ev.origins(x.X)
	case *ast.StarExpr:
		return ev.origins(x.X)
	case *ast.SliceExpr:
		return ev.origins(x.X)
	case *ast.IndexExpr:
		if tv, ok := info.Types[x.X]; ok && tv.IsValue() {
			return ev.origins(x.X) // element read: container taint
		}
		return nil // generic instantiation
	case *ast.TypeAssertExpr:
		return ev.origins(x.X)
	case *ast.UnaryExpr:
		return ev.origins(x.X) // incl. & (address-of) and <- (receive)
	case *ast.BinaryExpr:
		return ev.binaryOrigins(x)
	case *ast.CompositeLit:
		// Struct literals are fresh values: their elements flow into field
		// nodes (buildCompositeLit), not into the container, for the same
		// field-sensitivity reason as the selector case above. Indexed
		// collections (slices, arrays, maps) *are* their elements — an index
		// read returns the container's origins — so those union.
		if tv, ok := info.Types[x]; ok {
			if _, isStruct := tv.Type.Underlying().(*types.Struct); isStruct {
				return nil
			}
		}
		var flows []Flow
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			flows = append(flows, ev.origins(elt)...)
		}
		return flows
	case *ast.CallExpr:
		return ev.callOrigins(x)
	}
	return nil
}

// binaryOrigins unions both operands' origins. A shift is the exception:
// its result derives from the shifted operand alone, not from the amount.
func (ev *evaluator) binaryOrigins(x *ast.BinaryExpr) []Flow {
	if x.Op == token.SHL || x.Op == token.SHR {
		return ev.origins(x.X)
	}
	return append(ev.origins(x.X), ev.origins(x.Y)...)
}

// callOrigins models conversions, builtins, and function calls.
func (ev *evaluator) callOrigins(call *ast.CallExpr) []Flow {
	info := ev.pkg.Info
	// Conversion T(x): the value is x's.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return ev.origins(call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "append", "min", "max", "real", "imag", "complex":
				var flows []Flow
				for _, arg := range call.Args {
					flows = append(flows, ev.origins(arg)...)
				}
				return flows
			default: // make, new, panic, print, delete, clear, copy, ...
				return nil
			}
		}
	}
	flows := ev.callResultFlows(call, 1)
	return flows[0]
}
