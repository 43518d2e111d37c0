package lint

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Source seeds the taint engine: the abstract node the taint enters at and a
// human-readable description used in diagnostics.
type Source struct {
	n    node
	pos  token.Position
	what string
}

// TaintMap is the set of nodes one taint propagation reaches, each with its
// representative source: the first source whose taint reached it.
type TaintMap map[node]Hit

// Taint runs (and caches, per key) one taint propagation seeded by the given
// sources: a FIFO worklist over the value-flow edges that visits each node
// once, so a node's representative source is the first one to reach it.
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
		if _, ok := tm[s.n]; !ok {
			tm[s.n] = Hit{Pos: s.pos, What: s.what}
			work = append(work, s.n)
		}
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, to := range p.edges[n] {
			if _, ok := tm[to]; !ok {
				tm[to] = tm[n]
				work = append(work, to)
			}
		}
	}
	p.taintCache[key] = tm
	return tm
}

// Hit names the representative source of a tainted node or query point.
type Hit struct {
	Pos  token.Position // representative source position
	What string         // source description
}

// Query reports the first of the flows that is tainted.
func (tm TaintMap) Query(flows []Flow) (Hit, bool) {
	for _, f := range flows {
		if h, ok := tm[f.n]; ok {
			return h, true
		}
	}
	return Hit{}, false
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
