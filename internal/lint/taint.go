package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Source seeds the taint engine: the abstract node the taint enters at, the
// bit bound it carries there, and a human-readable description used in
// diagnostics.
type Source struct {
	n     node
	bound int
	pos   token.Position
	what  string
}

// taintState is the lattice element per node: the widest bit bound observed
// and the (deterministically chosen) representative source.
type taintState struct {
	bound int
	pos   token.Position
	what  string
}

// TaintMap is the fixpoint of one taint propagation over the program graph.
type TaintMap map[node]taintState

// Taint runs (and caches, per key) one taint propagation seeded by the given
// sources. Propagation is a FIFO worklist over the value-flow edges; the
// per-node bound only grows and is clamped to [0, 64], so the fixpoint is
// reached in bounded iterations.
func (p *Program) Taint(key string, seed func() []Source) TaintMap {
	if tm, ok := p.taintCache[key]; ok {
		return tm
	}
	sources := seed()
	// Deterministic worklist order: seed in source-position order.
	sort.Slice(sources, func(i, j int) bool {
		a, b := sources[i].pos, sources[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	tm := make(TaintMap)
	var work []node
	for _, s := range sources {
		st, ok := tm[s.n]
		if !ok || s.bound > st.bound {
			if !ok {
				st = taintState{bound: s.bound, pos: s.pos, what: s.what}
			} else {
				st.bound = s.bound
			}
			tm[s.n] = st
			work = append(work, s.n)
		}
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		st := tm[n]
		for _, e := range p.edges[n] {
			nb := e.tf.apply(st.bound)
			cur, ok := tm[e.to]
			if ok && cur.bound >= nb {
				continue
			}
			if !ok {
				cur = taintState{bound: nb, pos: st.pos, what: st.what}
			} else {
				cur.bound = nb
			}
			tm[e.to] = cur
			work = append(work, e.to)
		}
	}
	p.taintCache[key] = tm
	return tm
}

// Hit describes one tainted flow reaching a query point.
type Hit struct {
	Bound int            // bits the value may carry at the query point
	Pos   token.Position // representative source position
	What  string         // source description
}

// Query checks whether any of the flows is tainted, returning the hit with
// the widest surviving bound.
func (tm TaintMap) Query(flows []Flow) (Hit, bool) {
	var best Hit
	found := false
	for _, f := range flows {
		st, ok := tm[f.n]
		if !ok {
			continue
		}
		b := f.tf.apply(st.bound)
		if !found || b > best.Bound {
			best = Hit{Bound: b, Pos: st.pos, What: st.what}
			found = true
		}
	}
	return best, found
}

// Origins exposes the expression evaluator to analyzers: the abstract values
// expression e (from package pkg) may derive from.
func (p *Program) Origins(pkg *Package, e ast.Expr) []Flow {
	ev := &evaluator{prog: p, pkg: pkg}
	return ev.origins(e)
}

// Summary computes fn's transfer summary: for each parameter index, the
// result indexes a value entering that parameter can reach, with the
// composed bit-bound transform along the widest path. Summaries are the
// per-function digest of the global graph; tests pin them, and DESIGN.md §8
// documents how they relate to the context-insensitive propagation.
func (p *Program) Summary(fn *types.Func) map[int]map[int]xform {
	body := p.fns[fn]
	if body == nil {
		return nil
	}
	params := paramObjs(body.pkg, body.decl)
	nres := fn.Type().(*types.Signature).Results().Len()
	out := make(map[int]map[int]xform)
	for i, pobj := range params {
		if pobj == nil {
			continue
		}
		reach := p.reachability(objNode(pobj))
		for r := 0; r < nres; r++ {
			if tf, ok := reach[resultNode(fn, r)]; ok {
				if out[i] == nil {
					out[i] = make(map[int]xform)
				}
				out[i][r] = tf
			}
		}
	}
	return out
}

// reachability walks the graph from a node, composing transforms and joining
// parallel paths, until the per-node transforms stop improving.
func (p *Program) reachability(from node) map[node]xform {
	seen := map[node]xform{from: identity}
	work := []node{from}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		tf := seen[n]
		for _, e := range p.edges[n] {
			next := tf.compose(e.tf)
			cur, ok := seen[e.to]
			if ok {
				joined := cur.join(next)
				if joined == cur {
					continue
				}
				next = joined
			}
			seen[e.to] = next
			work = append(work, e.to)
		}
	}
	return seen
}

// --- package classification shared by the dataflow analyzers ----------------

// pkgBase returns the last path element of an import path — the package
// classifiers below match on it so the same analyzers run against both the
// real module ("rubix/internal/metrics") and the flat golden-testdata layout
// ("metrics").
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isMetricsPkg reports whether path is the observability package: the taint
// source domain of the observereffect analyzer.
func isMetricsPkg(path string) bool { return pkgBase(path) == "metrics" }

// statePkgs are the packages holding simulation state: writes into their
// structs, or calls into their functions, with telemetry-derived values are
// observer-effect violations.
var statePkgs = map[string]bool{
	"core": true, "cpu": true, "dram": true, "geom": true, "kcipher": true,
	"mapping": true, "memctrl": true, "mitigation": true, "rng": true,
	"sim": true, "tracker": true, "workload": true,
}

// isStatePkg reports whether path holds simulation state.
func isStatePkg(path string) bool { return statePkgs[pkgBase(path)] }

// declaredIn reports whether a type's named form is declared in a package
// satisfying the classifier (unwrapping pointers and slices).
func declaredIn(t types.Type, classify func(string) bool) bool {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Named:
			if pkg := x.Obj().Pkg(); pkg != nil {
				return classify(pkg.Path())
			}
			return false
		default:
			return false
		}
	}
}
