package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// HotAlloc is the static half of the allocation-free hot-path contract that
// cmd/benchdiff checks dynamically: a function annotated `// hot` (the PR 4
// census/scheduler/event-ring paths, the PR 7 MapBatch loops) must not
// allocate, and neither may anything it reaches through the static call
// graph — composite literals of reference kinds, append growth, make/new,
// closure creation, and concrete-to-interface escapes are all flagged inside
// the hot-reachable region. Interface calls resolve to every loaded
// implementation, so marking memctrl's batch drain hot gates each mapper's
// MapBatch. Traversal stops at `// cold` functions (explicitly-amortized
// growth paths, opt-in debug hooks) and error-constructing calls are exempt
// (the error path is cold by convention). Justify a deliberate allocation
// with //lint:allow hotalloc <why> — the same contract benchdiff's
// allocs/op gate enforces at run time, now visible at review time.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "functions annotated `// hot` (and everything they reach) must not " +
		"allocate: no make/new/&T{}/slice/map literals, append growth, " +
		"closures, or interface escapes; `// cold` stops traversal",
	NeedsProgram: true,
	Run:          runHotAlloc,
}

// hotReach is the memoized reachability result: for every function reachable
// from a `// hot` root, one representative path (its parent in the BFS tree
// and the root it came from).
type hotReach struct {
	root   *types.Func
	parent *types.Func
}

// hotAnnRE and coldAnnRE match the annotations on a line of their own in a
// doc comment: `// hot` marks an allocation-gated root, and `// cold` stops
// hot reachability at that function (an explicitly-amortized or debug-only
// callee) or, in a package doc, at every function of the package (opt-in
// debug machinery like the paranoid-mode checker).
var (
	hotAnnRE  = regexp.MustCompile(`(?m)^\s*hot\b`)
	coldAnnRE = regexp.MustCompile(`(?m)^\s*cold\b`)
)

// hotReachability computes (once per Program) the hot-reachable set over the
// static call graph, resolving interface method callees to every loaded
// implementation.
func (p *Program) hotReachability() map[*types.Func]hotReach {
	if p.hotReached != nil {
		return p.hotReached
	}
	var roots []*types.Func
	cold := make(map[*types.Func]bool)
	coldPkgs := make(map[string]bool)
	for _, pkg := range p.pkgs {
		for _, file := range pkg.Files {
			if file.Doc != nil && coldAnnRE.MatchString(file.Doc.Text()) {
				coldPkgs[pkgBase(pkg.Path)] = true
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				if hotAnnRE.MatchString(fd.Doc.Text()) {
					roots = append(roots, fn)
				}
				if coldAnnRE.MatchString(fd.Doc.Text()) {
					cold[fn] = true
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].FullName() < roots[j].FullName() })

	p.hotReached = make(map[*types.Func]hotReach)
	impls := p.interfaceImpls()
	for _, root := range roots {
		if _, seen := p.hotReached[root]; seen {
			continue
		}
		p.hotReached[root] = hotReach{root: root}
		work := []*types.Func{root}
		for len(work) > 0 {
			fn := work[0]
			work = work[1:]
			for _, callee := range p.Callees(fn) {
				targets := []*types.Func{callee}
				if iface := impls[callee]; len(iface) > 0 {
					targets = append(targets, iface...)
				}
				for _, t := range targets {
					if cold[t] {
						continue
					}
					if tp := t.Pkg(); tp != nil && coldPkgs[pkgBase(tp.Path())] {
						continue // the whole package is off the measured path
					}
					if _, seen := p.hotReached[t]; seen {
						continue
					}
					if !p.HasBody(t) {
						continue // out-of-module: the dynamic gate covers it
					}
					p.hotReached[t] = hotReach{root: root, parent: fn}
					work = append(work, t)
				}
			}
		}
	}
	return p.hotReached
}

// interfaceImpls maps each interface method object to the concrete methods
// (with loaded bodies) of types implementing that interface — the dynamic
// dispatch edge the plain call graph cannot see.
func (p *Program) interfaceImpls() map[*types.Func][]*types.Func {
	impls := make(map[*types.Func][]*types.Func)

	// Collect the interface methods that appear as call-graph callees.
	ifaceMethods := make(map[*types.Func]*types.Interface)
	for _, set := range p.callees {
		for callee := range set { // membership only; output sorted below
			if callee.Type() == nil {
				continue
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				continue
			}
			if it, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				ifaceMethods[callee] = it
			}
		}
	}
	if len(ifaceMethods) == 0 {
		return impls
	}
	// Match every named type in the loaded packages against each interface.
	for _, pkg := range p.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for m, it := range ifaceMethods { // deterministic: sorted below
				var recv types.Type = named
				if !types.Implements(recv, it) {
					recv = types.NewPointer(named)
					if !types.Implements(recv, it) {
						continue
					}
				}
				obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
				if impl, ok := obj.(*types.Func); ok && p.HasBody(impl) {
					impls[m] = append(impls[m], impl)
				}
			}
		}
	}
	for _, fns := range impls { // per-key sort: deterministic traversal
		sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	}
	return impls
}

func runHotAlloc(pass *Pass) error {
	reach := pass.Prog.hotReachability()
	if len(reach) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			hr, hot := reach[fn]
			if !hot {
				continue
			}
			checkHotBody(pass, fn, fd, hr)
		}
	}
	return nil
}

// hotPathLabel renders "hot mapping.MapBatch" or "reachable from hot
// memctrl.AccessBatch via accessMapped" for diagnostics.
func hotPathLabel(fn *types.Func, hr hotReach) string {
	if hr.root == fn {
		return fmt.Sprintf("// hot function %s", funcLabel(fn))
	}
	via := ""
	if hr.parent != nil && hr.parent != hr.root {
		via = fmt.Sprintf(" via %s", funcLabel(hr.parent))
	}
	return fmt.Sprintf("function %s reachable from // hot %s%s", funcLabel(fn), funcLabel(hr.root), via)
}

// funcLabel renders pkg.Name or pkg.(T).Name for diagnostics.
func funcLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = pkgBase(fn.Pkg().Path()) + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return pkg + typeName(sig.Recv().Type()) + "." + fn.Name()
	}
	return pkg + fn.Name()
}

// checkHotBody walks one hot-reachable function body and reports every
// static allocation site.
func checkHotBody(pass *Pass, fn *types.Func, fd *ast.FuncDecl, hr hotReach) {
	where := hotPathLabel(fn, hr)
	report := func(pos token.Pos, kind string) {
		pass.Report(pos, fmt.Sprintf(
			"%s in %s; hoist it out of the hot path, mark the callee // cold, or annotate //lint:allow hotalloc <why>",
			kind, where))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure allocation (func literal)")
			return false // the closure body runs elsewhere; sites inside it belong to its own analysis
		case *ast.CompositeLit:
			tv, ok := pass.Info.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocation")
			case *types.Map:
				report(n.Pos(), "map literal allocation")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					report(n.Pos(), "heap allocation (&composite literal)")
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					// The panic path is the crash path: allocations while the
					// program dies (fmt.Sprintf in an invariant guard) are
					// irrelevant to steady-state alloc counts.
					return false
				}
			}
			checkHotCall(pass, n, report)
		}
		return true
	})
}

// checkHotCall flags allocating builtins and concrete-to-interface argument
// escapes at one call site.
func checkHotCall(pass *Pass, call *ast.CallExpr, report func(token.Pos, string)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call.Pos(), "make allocation")
			case "new":
				report(call.Pos(), "new allocation")
			case "append":
				report(call.Pos(), "append growth")
			}
			return
		}
	}
	// Interface escapes: a concrete value passed where an interface is
	// expected boxes the value. Error-constructing/reporting callees are
	// exempt — the error path is the cold path by convention — as is panic.
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	if signatureReturnsError(sig) {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		j := i
		if j >= params.Len() {
			j = params.Len() - 1
		}
		if j < 0 {
			break
		}
		pt := params.At(j).Type()
		if sig.Variadic() && j == params.Len()-1 {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if bt, ok := at.Underlying().(*types.Basic); ok && bt.Kind() == types.UntypedNil {
			continue
		}
		if tvArg, ok := pass.Info.Types[arg]; ok && tvArg.Value != nil && allocFreeConstKind(at) {
			continue // small constants stay in the read-only data segment
		}
		report(arg.Pos(), fmt.Sprintf("interface escape (boxing %s)", strings.TrimPrefix(at.String(), "untyped ")))
	}
}

// allocFreeConstKind reports whether boxing a constant of this type cannot
// allocate per call (strings and bools intern; small ints stay in the
// runtime's static box cache).
func allocFreeConstKind(t types.Type) bool {
	bt, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return bt.Info()&(types.IsString|types.IsBoolean|types.IsInteger) != 0
}

// signatureReturnsError reports whether any result of the signature is the
// error type.
func signatureReturnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return true
		}
	}
	return false
}
