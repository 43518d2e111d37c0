package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// This file extends the value-flow IR (graph.go) with concurrency facts: the
// shared substrate the lockdiscipline and goroutineescape analyzers run on.
// The facts are collected in one deterministic walk over every loaded
// function body:
//
//   - lock regions: a sequential walk tracks the set of sync.Mutex /
//     sync.RWMutex objects held at each point. Lock/RLock add to the held
//     set, Unlock/RUnlock remove; `defer mu.Unlock()` leaves the mutex held
//     to the end of the function. Locks acquired inside a branch, loop, or
//     select arm are scoped to it (the held set is restored afterwards),
//     which is conservative: a lock the walk cannot prove held is treated as
//     not held.
//   - entry locks: a must-analysis fixpoint infers, for each unexported
//     function, the intersection of locks held at all of its call sites
//     (entryHeld), so a locked public method calling an unlocked private
//     helper does not make the helper's field accesses look unguarded.
//     Calls made from inside goroutine bodies contribute only their locally
//     held locks (a goroutine does not inherit its spawner's locks).
//   - spawn sites: every `go` statement, plus closures passed to worker-pool
//     parameters — a parameter p is a spawn parameter if the callee (or a
//     transitive callee it forwards p to) executes `go p(...)`. Each spawn
//     records its captured variables (free variables of the FuncLit, or
//     argument origins for `go f(args)`).
//   - field and variable accesses: every struct-field read/write and every
//     variable write, annotated with the held set, the enclosing function,
//     and the enclosing spawn (if inside a goroutine body).
//   - struct metadata: per field declaration, the declaring ast.Field, the
//     owning named type, sibling fields, and any `// guarded by <name>`
//     annotation on the field's doc or trailing comment.
//
// Known unsoundness (documented in DESIGN.md §11): the held-set walk is
// syntactic (a mutex reached through two different pointers is two objects);
// closure bodies not passed to `go` or a spawn parameter are walked with the
// caller's held set (they may actually run later); base objects of nested
// selector paths (a.b.c) resolve to the intermediate field node, not the
// root; and dynamic calls (function values, interface methods without
// bodies) are opaque.

// lockMode distinguishes write locks (Lock) from read locks (RLock).
type lockMode uint8

const (
	lockWrite lockMode = iota
	lockRead
)

// lockSet maps a mutex object to the strongest mode it is held in.
type lockSet map[types.Object]lockMode

func (ls lockSet) clone() lockSet {
	out := make(lockSet, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

// acquire records the mutex as held, upgrading read → write but never
// downgrading.
func (ls lockSet) acquire(o types.Object, m lockMode) {
	if cur, ok := ls[o]; ok && cur == lockWrite {
		return
	}
	ls[o] = m
}

func (ls lockSet) release(o types.Object) { delete(ls, o) }

// holdsWrite reports whether o is held exclusively.
func (ls lockSet) holdsWrite(o types.Object) bool {
	m, ok := ls[o]
	return ok && m == lockWrite
}

// holdsAny reports whether o is held in any mode.
func (ls lockSet) holdsAny(o types.Object) bool {
	_, ok := ls[o]
	return ok
}

// union merges o into ls, keeping the strongest mode per mutex.
func (ls lockSet) union(o lockSet) lockSet {
	if len(o) == 0 {
		return ls
	}
	out := ls.clone()
	for k, v := range o {
		out.acquire(k, v)
	}
	return out
}

// intersect keeps only mutexes held in both sets, at the weaker mode.
func (ls lockSet) intersect(o lockSet) lockSet {
	out := make(lockSet)
	for k, v := range ls {
		if ov, ok := o[k]; ok {
			m := v
			if ov == lockRead {
				m = lockRead
			}
			out[k] = m
		}
	}
	return out
}

func (ls lockSet) equal(o lockSet) bool {
	if len(ls) != len(o) {
		return false
	}
	for k, v := range ls {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// fieldAccess is one read or write of a struct field.
type fieldAccess struct {
	field *types.Var // the field object (one per declaration, all instances)
	pos   token.Pos
	pkg   *Package    // package containing the access site
	write bool        // assignment, IncDec, or element write through the field
	holds lockSet     // locally held locks at the site (see effectiveHolds)
	fn    *types.Func // enclosing declared function; nil at package scope
	spawn int         // enclosing spawn id, or -1
	base  []types.Object
}

// varWrite is one write to a named variable (local or package-level).
type varWrite struct {
	obj   types.Object
	pos   token.Pos
	pkg   *Package
	holds lockSet
	fn    *types.Func
	spawn int
}

// callFact is one static call site with its concurrency context and the
// named objects each argument (and the receiver) derives from — the binding
// the goroutineescape analyzer threads capture taint through.
type callFact struct {
	caller   *types.Func
	callee   *types.Func
	holds    lockSet
	spawn    int // spawn id if the call happens inside a goroutine body, else -1
	pos      token.Pos
	argObjs  [][]types.Object
	recvObjs []types.Object
}

// spawnSite is one goroutine creation point.
type spawnSite struct {
	id       int
	fn       *types.Func // the spawning function
	pos      token.Pos
	captured []types.Object // free variables / argument origins, position order
}

// fieldDeclInfo is the declaration-side metadata of one struct field.
type fieldDeclInfo struct {
	pkg      *Package
	field    *ast.Field   // the declaring field (may name several objects)
	owner    *types.Named // owning named struct type; nil for anonymous structs
	guard    string       // `guarded by <name>` annotation text, if any
	guardObj types.Object // resolved guard (sibling field or package var)
	siblings []*types.Var // all fields of the owning struct, in order
}

// concFacts is the complete concurrency-fact database, built once per
// Program and shared by the concurrency analyzers.
type concFacts struct {
	spawns    []*spawnSite
	fields    []fieldAccess
	varWrites []varWrite
	calls     []callFact

	fieldDecl map[*types.Var]*fieldDeclInfo
	entryHeld map[*types.Func]lockSet

	// guards is the lockdiscipline inference result, memoized here because
	// the analyzer runs once per package but the inference is module-global.
	guards     map[*types.Var]*guardInfo
	guardsDone bool
}

// concurrency builds (once) and returns the concurrency facts for the
// program. Run is single-threaded per Program, so a plain memo suffices.
func (p *Program) concurrency() *concFacts {
	if p.conc != nil {
		return p.conc
	}
	f := &concFacts{
		fieldDecl: make(map[*types.Var]*fieldDeclInfo),
		entryHeld: make(map[*types.Func]lockSet),
	}
	w := &concWalker{prog: p, facts: f}
	w.collectSpawnParams()
	for _, pkg := range p.pkgs {
		w.pkg = pkg
		w.ev = &evaluator{prog: p, pkg: pkg}
		w.collectStructDecls()
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				ctx := &concCtx{fn: fn, spawn: -1, held: lockSet{}}
				w.stmt(fd.Body, ctx)
			}
		}
	}
	w.resolveGuardAnnotations()
	f.computeEntryHeld(p)
	p.conc = f
	return f
}

// effectiveHolds is the held set the analyzers should treat an access as
// having: the locally tracked locks plus, for sites not inside a goroutine
// body, the locks every caller provably holds at the enclosing function's
// entry.
func (f *concFacts) effectiveHolds(holds lockSet, fn *types.Func, spawn int) lockSet {
	if spawn >= 0 || fn == nil {
		return holds
	}
	return holds.union(f.entryHeld[fn])
}

// computeEntryHeld runs the must-hold fixpoint: for each unexported function
// with at least one static call site, the intersection over call sites of
// (locks held at the site ∪ entry locks of the caller). Exported functions
// and functions with no observed callers start (and stay) empty — they can
// be entered from anywhere.
func (f *concFacts) computeEntryHeld(p *Program) {
	callers := make(map[*types.Func][]callFact)
	for _, cf := range f.calls {
		if cf.callee != nil && p.fns[cf.callee] != nil && !cf.callee.Exported() {
			callers[cf.callee] = append(callers[cf.callee], cf)
		}
	}
	fns := make([]*types.Func, 0, len(callers))
	for fn := range callers { // key extraction: sorted below
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })

	// Optimistic initialization to ⊤ (nil marks "not yet constrained"), then
	// decrease to the fixpoint. The lattice is finite (subsets of the mutex
	// universe) and every step intersects, so this terminates.
	top := make(map[*types.Func]bool, len(fns))
	for _, fn := range fns {
		top[fn] = true
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			var acc lockSet
			first := true
			bottom := false
			for _, cf := range callers[fn] {
				at := cf.holds
				if cf.spawn < 0 && cf.caller != nil && !top[cf.caller] {
					at = at.union(f.entryHeld[cf.caller])
				} else if cf.spawn < 0 && cf.caller != nil && top[cf.caller] {
					// Caller still ⊤: skip this site optimistically.
					continue
				}
				if first {
					acc = at.clone()
					first = false
				} else {
					acc = acc.intersect(at)
				}
				if len(acc) == 0 {
					bottom = true
					break
				}
			}
			if first && !bottom {
				continue // all call sites still ⊤; stay ⊤ this round
			}
			if acc == nil {
				acc = lockSet{}
			}
			if top[fn] || !f.entryHeld[fn].equal(acc) {
				top[fn] = false
				f.entryHeld[fn] = acc
				changed = true
			}
		}
	}
	// Anything still ⊤ is in a caller cycle with no grounded entry: treat as
	// unconstrained (empty), the conservative answer.
	for fn, t := range top {
		if t {
			f.entryHeld[fn] = lockSet{}
		}
	}
}

// concCtx is the walk state for one body: the enclosing declared function,
// the enclosing spawn (goroutine) id, and the locally held lock set.
type concCtx struct {
	fn    *types.Func
	spawn int
	held  lockSet
}

func (c *concCtx) fork() *concCtx {
	return &concCtx{fn: c.fn, spawn: c.spawn, held: c.held.clone()}
}

// concWalker drives the fact-collection walk.
type concWalker struct {
	prog  *Program
	facts *concFacts
	pkg   *Package
	ev    *evaluator

	// spawnParams marks (function, parameter index) pairs whose argument is
	// eventually launched via a `go` statement (worker pools).
	spawnParams map[*types.Func]map[int]bool
}

// guardedByRE extracts the mutex name from a `guarded by mu` comment.
var guardedByRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// collectStructDecls indexes every struct field declared in the current
// package: owning type, siblings, and `guarded by` annotations.
func (w *concWalker) collectStructDecls() {
	for _, file := range w.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			var owner *types.Named
			var st *ast.StructType
			if ok {
				st, _ = ts.Type.(*ast.StructType)
				if st != nil {
					if tn, ok := w.pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						owner, _ = tn.Type().(*types.Named)
					}
				}
			} else if s, isStruct := n.(*ast.StructType); isStruct {
				// Anonymous struct (e.g. a package-level cache var). Only
				// record it if we have not already seen it under a TypeSpec.
				st = s
			}
			if st == nil || st.Fields == nil {
				return true
			}
			var siblings []*types.Var
			var infos []*fieldDeclInfo
			for _, fld := range st.Fields.List {
				info := &fieldDeclInfo{pkg: w.pkg, field: fld, owner: owner}
				if txt := commentText(fld); txt != "" {
					if m := guardedByRE.FindStringSubmatch(txt); m != nil {
						info.guard = m[1]
					}
				}
				names := fld.Names
				if len(names) == 0 {
					// Embedded field: its object is in Defs via the type name?
					// go/types defines embedded fields through the struct type;
					// recover the *types.Var by position from the struct type.
					if tv, ok := w.pkg.Info.Types[st]; ok {
						if s, ok := tv.Type.Underlying().(*types.Struct); ok {
							for i := 0; i < s.NumFields(); i++ {
								fv := s.Field(i)
								if fv.Embedded() && fv.Pos() == fld.Type.Pos() || fv.Pos() == fieldNamePos(fld) {
									if _, seen := w.facts.fieldDecl[fv]; !seen {
										w.facts.fieldDecl[fv] = info
										siblings = append(siblings, fv)
										infos = append(infos, info)
									}
									break
								}
							}
						}
					}
					continue
				}
				for _, name := range names {
					fv, ok := w.pkg.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if _, seen := w.facts.fieldDecl[fv]; seen {
						continue
					}
					w.facts.fieldDecl[fv] = info
					siblings = append(siblings, fv)
					infos = append(infos, info)
				}
			}
			for _, info := range infos {
				info.siblings = siblings
			}
			return true
		})
	}
}

// fieldNamePos returns the position an embedded field's object is declared
// at: the embedded type name (unwrapping a pointer).
func fieldNamePos(fld *ast.Field) token.Pos {
	t := fld.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if sel, ok := t.(*ast.SelectorExpr); ok {
		return sel.Sel.Pos()
	}
	return t.Pos()
}

// commentText joins a field's doc and trailing comments.
func commentText(fld *ast.Field) string {
	var parts []string
	if fld.Doc != nil {
		parts = append(parts, fld.Doc.Text())
	}
	if fld.Comment != nil {
		parts = append(parts, fld.Comment.Text())
	}
	return strings.Join(parts, " ")
}

// resolveGuardAnnotations resolves each `guarded by <name>` annotation to a
// sibling field or package-level variable after all declarations are
// indexed.
func (w *concWalker) resolveGuardAnnotations() {
	for _, info := range w.facts.fieldDecl {
		if info.guard == "" {
			continue
		}
		for _, sib := range info.siblings {
			if sib.Name() == info.guard {
				info.guardObj = sib
				break
			}
		}
		if info.guardObj == nil && info.pkg.Types != nil {
			if o := info.pkg.Types.Scope().Lookup(info.guard); o != nil {
				info.guardObj = o
			}
		}
	}
}

// collectSpawnParams finds worker-pool parameters: a fixpoint over "go p()"
// seeds and parameter forwarding, so `func pool(w func()) { go w() }` and
// any wrapper that passes its own func param into pool are both recognized.
func (w *concWalker) collectSpawnParams() {
	w.spawnParams = make(map[*types.Func]map[int]bool)
	type fwd struct {
		from    *types.Func // function whose param is forwarded
		fromIdx int
		to      *types.Func // callee receiving it
		toIdx   int
	}
	var forwards []fwd
	mark := func(fn *types.Func, idx int) bool {
		if w.spawnParams[fn] == nil {
			w.spawnParams[fn] = make(map[int]bool)
		}
		if w.spawnParams[fn][idx] {
			return false
		}
		w.spawnParams[fn][idx] = true
		return true
	}
	for _, pkg := range w.prog.pkgs {
		ev := &evaluator{prog: w.prog, pkg: pkg}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				params := paramObjs(pkg, fd)
				paramIdx := func(e ast.Expr) (int, bool) {
					id, ok := ast.Unparen(e).(*ast.Ident)
					if !ok {
						return 0, false
					}
					obj := pkg.Info.Uses[id]
					for i, p := range params {
						if p != nil && p == obj {
							return i, true
						}
					}
					return 0, false
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						if i, ok := paramIdx(n.Call.Fun); ok {
							mark(fn, i)
						}
					case *ast.CallExpr:
						callee := ev.staticCallee(n)
						if callee == nil || w.prog.fns[callee] == nil {
							return true
						}
						for ai, arg := range n.Args {
							if i, ok := paramIdx(arg); ok {
								forwards = append(forwards, fwd{from: fn, fromIdx: i, to: callee, toIdx: ai})
							}
						}
					}
					return true
				})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range forwards {
			if w.spawnParams[f.to][f.toIdx] {
				if mark(f.from, f.fromIdx) {
					changed = true
				}
			}
		}
	}
}

// --- the statement walk ------------------------------------------------------

func (w *concWalker) stmts(list []ast.Stmt, ctx *concCtx) {
	for _, s := range list {
		w.stmt(s, ctx)
	}
}

// stmt processes one statement, mutating ctx.held for lock operations at
// this nesting level and forking it for nested control flow.
func (w *concWalker) stmt(s ast.Stmt, ctx *concCtx) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List, ctx)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, ctx)
	case *ast.ExprStmt:
		w.expr(s.X, ctx)
	case *ast.AssignStmt:
		w.assign(s, ctx)
	case *ast.IncDecStmt:
		w.writeTarget(s.X, ctx)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, ctx)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Value, ctx)
	case *ast.GoStmt:
		w.spawnFromGo(s, ctx)
	case *ast.DeferStmt:
		w.deferStmt(s, ctx)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, ctx)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, ctx)
		}
		w.expr(s.Cond, ctx)
		w.stmt(s.Body, ctx.fork())
		if s.Else != nil {
			w.stmt(s.Else, ctx.fork())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, ctx)
		}
		inner := ctx.fork()
		if s.Cond != nil {
			w.expr(s.Cond, inner)
		}
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
		w.stmt(s.Body, inner)
	case *ast.RangeStmt:
		w.expr(s.X, ctx)
		w.stmt(s.Body, ctx.fork())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, ctx)
		}
		if s.Tag != nil {
			w.expr(s.Tag, ctx)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := ctx.fork()
				for _, e := range cc.List {
					w.expr(e, inner)
				}
				w.stmts(cc.Body, inner)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, ctx)
		}
		w.stmt(s.Assign, ctx)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, ctx.fork())
			}
		}
	case *ast.SelectStmt:
		// Each arm is its own scope. Like a bare send, an arm's channel
		// operand is not walked as a read: a sent value is, and so is the
		// target a received value is assigned to.
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			inner := ctx.fork()
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				w.expr(comm.Value, inner)
			case *ast.AssignStmt:
				for _, l := range comm.Lhs {
					w.writeTarget(l, inner)
				}
			}
			w.stmts(cc.Body, inner)
		}
	}
}

// deferStmt handles `defer`: a deferred Unlock keeps the mutex held for the
// rest of the function; a deferred closure is walked with a copy of the
// current held set.
func (w *concWalker) deferStmt(s *ast.DeferStmt, ctx *concCtx) {
	if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
		if kind, target, ok := w.syncCall(sel); ok && target != nil && (kind == "Unlock" || kind == "RUnlock") {
			return // held to end of function by the walk model
		}
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		w.stmt(lit.Body, ctx.fork())
		for _, arg := range s.Call.Args {
			w.expr(arg, ctx)
		}
		return
	}
	// Other deferred calls: record like a normal call.
	w.expr(s.Call, ctx)
}

// assign records writes for the left-hand sides and reads for everything
// else.
func (w *concWalker) assign(s *ast.AssignStmt, ctx *concCtx) {
	for _, rhs := range s.Rhs {
		w.expr(rhs, ctx)
	}
	for _, lhs := range s.Lhs {
		w.writeTarget(lhs, ctx)
	}
}

// writeTarget records the write implied by an assignment target and scans
// its sub-expressions (index keys, selector bases) as reads.
func (w *concWalker) writeTarget(lhs ast.Expr, ctx *concCtx) {
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := w.pkg.Info.Defs[x]
		if obj == nil {
			obj = w.pkg.Info.Uses[x]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() {
			w.facts.varWrites = append(w.facts.varWrites, varWrite{
				obj: v, pos: x.Pos(), pkg: w.pkg, holds: ctx.held.clone(),
				fn: ctx.fn, spawn: ctx.spawn,
			})
		}
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if fv, ok := sel.Obj().(*types.Var); ok {
				w.facts.fields = append(w.facts.fields, fieldAccess{
					field: fv, pos: x.Sel.Pos(), pkg: w.pkg, write: true,
					holds: ctx.held.clone(), fn: ctx.fn, spawn: ctx.spawn,
					base: flowObjs(w.ev.origins(x.X)),
				})
			}
			w.expr(x.X, ctx)
			return
		}
		// Package-qualified var write (pkg.Var = ...).
		if v, ok := w.pkg.Info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
			w.facts.varWrites = append(w.facts.varWrites, varWrite{
				obj: v, pos: x.Sel.Pos(), pkg: w.pkg, holds: ctx.held.clone(),
				fn: ctx.fn, spawn: ctx.spawn,
			})
		}
	case *ast.IndexExpr:
		// m[k] = v writes the container.
		w.writeTarget(x.X, ctx)
		w.expr(x.Index, ctx)
	case *ast.StarExpr:
		w.writeTarget(x.X, ctx)
	case *ast.ParenExpr:
		w.writeTarget(x.X, ctx)
	}
}

// expr scans an expression for reads, calls, and nested closures. Lock
// method calls mutate ctx.held.
func (w *concWalker) expr(e ast.Expr, ctx *concCtx) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.Ident:
		return
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if fv, ok := sel.Obj().(*types.Var); ok {
				w.facts.fields = append(w.facts.fields, fieldAccess{
					field: fv, pos: x.Sel.Pos(), pkg: w.pkg, write: false,
					holds: ctx.held.clone(), fn: ctx.fn, spawn: ctx.spawn,
					base: flowObjs(w.ev.origins(x.X)),
				})
			}
		}
		w.expr(x.X, ctx)
	case *ast.CallExpr:
		w.call(x, ctx)
	case *ast.UnaryExpr:
		w.expr(x.X, ctx)
	case *ast.BinaryExpr:
		w.expr(x.X, ctx)
		w.expr(x.Y, ctx)
	case *ast.ParenExpr:
		w.expr(x.X, ctx)
	case *ast.StarExpr:
		w.expr(x.X, ctx)
	case *ast.IndexExpr:
		w.expr(x.X, ctx)
		w.expr(x.Index, ctx)
	case *ast.SliceExpr:
		w.expr(x.X, ctx)
		w.expr(x.Low, ctx)
		w.expr(x.High, ctx)
		w.expr(x.Max, ctx)
	case *ast.TypeAssertExpr:
		w.expr(x.X, ctx)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			w.expr(elt, ctx)
		}
	case *ast.FuncLit:
		// A closure not passed to go/defer/worker-pool runs, as far as this
		// model knows, synchronously: walk it with a copy of the held set so
		// lock mutations inside do not leak out.
		w.stmt(x.Body, ctx.fork())
	case *ast.KeyValueExpr:
		w.expr(x.Key, ctx)
		w.expr(x.Value, ctx)
	}
}

// call classifies a call expression: mutex operation (mutates held),
// builtin, worker-pool spawn argument, or a plain call (records a callFact
// and binds nothing further here — graph.go already built the value edges).
func (w *concWalker) call(call *ast.CallExpr, ctx *concCtx) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if kind, target, ok := w.syncCall(sel); ok {
			w.expr(sel.X, ctx)
			if target == nil {
				return
			}
			switch kind {
			case "Lock":
				ctx.held.acquire(target, lockWrite)
			case "RLock":
				ctx.held.acquire(target, lockRead)
			case "Unlock", "RUnlock":
				ctx.held.release(target)
			}
			return
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			for _, a := range call.Args {
				w.expr(a, ctx)
			}
			return
		}
	}
	callee := w.ev.staticCallee(call)
	if callee != nil {
		cf := callFact{
			caller: ctx.fn, callee: callee, holds: ctx.held.clone(),
			spawn: ctx.spawn, pos: call.Pos(),
		}
		for _, arg := range call.Args {
			cf.argObjs = append(cf.argObjs, flowObjs(w.ev.origins(arg)))
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			cf.recvObjs = flowObjs(w.ev.origins(sel.X))
		}
		w.facts.calls = append(w.facts.calls, cf)
	}
	// Worker-pool spawn: a FuncLit argument at a spawn-param position is a
	// goroutine body.
	for ai, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && callee != nil && w.spawnParams[callee][ai] {
			w.spawnFromLit(lit, call.Pos(), ctx)
			continue
		}
		w.expr(arg, ctx)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X, ctx)
	}
}

// spawnFromGo records a `go` statement as a spawn site and walks a closure
// body in goroutine context (fresh held set).
func (w *concWalker) spawnFromGo(s *ast.GoStmt, ctx *concCtx) {
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		w.spawnFromLit(lit, s.Pos(), ctx)
		for _, arg := range s.Call.Args {
			w.expr(arg, ctx)
		}
		return
	}
	// go f(args) / go obj.Method(args): captured = argument and receiver
	// origins; the callee body is walked on its own, and the spawn's call
	// fact links it to the goroutine.
	sp := &spawnSite{id: len(w.facts.spawns), fn: ctx.fn, pos: s.Pos()}
	var objs []types.Object
	if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
		objs = append(objs, flowObjs(w.ev.origins(sel.X))...)
	}
	for _, arg := range s.Call.Args {
		objs = append(objs, flowObjs(w.ev.origins(arg))...)
		w.expr(arg, ctx)
	}
	sp.captured = dedupObjs(objs)
	w.facts.spawns = append(w.facts.spawns, sp)
	w.facts.calls = append(w.facts.calls, callFact{
		caller: ctx.fn, callee: w.ev.staticCallee(s.Call), holds: lockSet{}, spawn: sp.id, pos: s.Pos(),
	})
}

// spawnFromLit records a FuncLit goroutine body and walks it with spawn
// context: empty held set and the spawn id.
func (w *concWalker) spawnFromLit(lit *ast.FuncLit, pos token.Pos, ctx *concCtx) {
	sp := &spawnSite{id: len(w.facts.spawns), fn: ctx.fn, pos: pos, captured: w.capturedVars(lit)}
	w.facts.spawns = append(w.facts.spawns, sp)
	w.stmt(lit.Body, &concCtx{fn: ctx.fn, spawn: sp.id, held: lockSet{}})
}

// capturedVars collects the free variables of a closure: every variable
// (non-field) used inside the literal but declared outside it, in first-use
// order.
func (w *concWalker) capturedVars(lit *ast.FuncLit) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.pkg.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside (params, locals)
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}

// syncCall classifies sel as a method call on a sync.Mutex / sync.RWMutex
// and resolves the receiver to its declaring object. The
// bool result reports "this is a sync call" even when the receiver object
// cannot be resolved (target nil), so callers skip held mutation but also
// do not record a spurious callFact.
func (w *concWalker) syncCall(sel *ast.SelectorExpr) (kind string, target types.Object, ok bool) {
	fn, isFn := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", nil, false
	}
	tname := typeName(recv.Type())
	switch tname {
	case "Mutex", "RWMutex":
		switch fn.Name() {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
			if fn.Name() == "TryLock" || fn.Name() == "TryRLock" {
				return fn.Name(), nil, true // unmodeled; don't track
			}
			return fn.Name(), w.syncTarget(sel), true
		}
	}
	return "", nil, false
}

// syncTarget resolves the receiver of a sync method call to the object that
// names the synchronizer: a variable, a struct field, or — for promoted
// methods on an embedded Mutex — the embedded field itself.
func (w *concWalker) syncTarget(sel *ast.SelectorExpr) types.Object {
	if s, ok := w.pkg.Info.Selections[sel]; ok {
		idx := s.Index()
		if len(idx) > 1 {
			// Promoted method: the path's last field step is the embedded
			// synchronizer.
			t := s.Recv()
			var field *types.Var
			for _, i := range idx[:len(idx)-1] {
				st, ok := derefStruct(t)
				if !ok {
					return nil
				}
				field = st.Field(i)
				t = field.Type()
			}
			return field
		}
	}
	return exprObj(w.pkg, sel.X)
}

// exprObj resolves an expression naming a value to its object: identifiers,
// field selectors (the field object), and &x / *x / (x) unwrap.
func exprObj(pkg *Package, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil {
			return obj
		}
		return pkg.Info.Defs[x]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return pkg.Info.Uses[x.Sel]
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return exprObj(pkg, x.X)
		}
	case *ast.StarExpr:
		return exprObj(pkg, x.X)
	}
	return nil
}

// derefStruct unwraps pointers/named types down to a struct.
func derefStruct(t types.Type) (*types.Struct, bool) {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			t = x.Underlying()
		case *types.Struct:
			return x, true
		default:
			return nil, false
		}
	}
}

// typeName returns the name of a (possibly pointered) named type.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// flowObjs extracts the named objects from a flow set.
func flowObjs(flows []Flow) []types.Object {
	var out []types.Object
	for _, f := range flows {
		if f.n.obj != nil {
			out = append(out, f.n.obj)
		}
	}
	return dedupObjs(out)
}

func dedupObjs(objs []types.Object) []types.Object {
	seen := make(map[types.Object]bool, len(objs))
	out := objs[:0]
	for _, o := range objs {
		if o != nil && !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}
