package lint

import (
	"fmt"
	"go/types"
	"sort"
	"testing"
)

// loadTestProgram builds the Program over the golden testdata tree.
func loadTestProgram(t *testing.T) *Program {
	t.Helper()
	pkgs, err := NewLoader("testdata/src", "").LoadAll()
	if err != nil {
		t.Fatalf("loading testdata: %v", err)
	}
	return BuildProgram(pkgs)
}

// lookupFunc finds a package-level function in the loaded program.
func lookupFunc(t *testing.T, p *Program, pkgPath, name string) *types.Func {
	t.Helper()
	pkg := p.Package(pkgPath)
	if pkg == nil {
		t.Fatalf("package %q not loaded", pkgPath)
	}
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("%s.%s not found", pkgPath, name)
	}
	return fn
}

// TestTransferSummary pins parameter-to-result flow through a function
// body: a taint seeded at parameter 0 of bitwidth.shift (a shift) and of
// observereffect.launder (an addition) reaches the function's result 0.
func TestTransferSummary(t *testing.T) {
	p := loadTestProgram(t)
	for _, c := range []struct{ pkg, fn string }{
		{"bitwidth", "shift"},
		{"observereffect", "launder"},
	} {
		fn := lookupFunc(t, p, c.pkg, c.fn)
		param := fn.Type().(*types.Signature).Params().At(0)
		tm := p.Taint("summary:"+c.fn, func() []Source {
			return []Source{{n: objNode(param), what: param.Name()}}
		})
		if _, ok := tm[resultNode(fn, 0)]; !ok {
			t.Errorf("taint at %s.%s parameter %q does not reach result 0", c.pkg, c.fn, param.Name())
		}
	}
}

// TestCallGraph pins static call-graph construction, including interface
// callees (resolved to the interface method object).
func TestCallGraph(t *testing.T) {
	p := loadTestProgram(t)
	indirect := lookupFunc(t, p, "bitwidth", "Indirect")
	var names []string
	for _, c := range p.Callees(indirect) {
		names = append(names, c.FullName())
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	if !want["(mapping.Mapper).Map"] {
		t.Errorf("Callees(Indirect) = %v, missing interface method (mapping.Mapper).Map", names)
	}
	if !want["bitwidth.shift"] {
		t.Errorf("Callees(Indirect) = %v, missing bitwidth.shift", names)
	}
}

// TestTaintDeterminism pins that two independent propagations over the same
// program agree node-for-node — the lint suite's own replay contract.
func TestTaintDeterminism(t *testing.T) {
	seed := func(p *Program) TaintMap {
		return p.Taint("det-test", func() []Source {
			helper := p.Package("dram")
			var srcs []Source
			scope := helper.Types.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if fn, ok := obj.(*types.Func); ok {
					srcs = append(srcs, Source{
						n:    resultNode(fn, 0),
						pos:  helper.Fset.Position(fn.Pos()),
						what: fn.Name(),
					})
				}
			}
			return srcs
		})
	}
	// Two independent loads type-check into distinct object identities, so
	// project each map to a stable rendering (node source position + state)
	// before comparing.
	render := func(p *Program, tm TaintMap) []string {
		var out []string
		for n, st := range tm { // key extraction: sorted below
			var at string
			switch {
			case n.obj != nil:
				at = p.pkgs[0].Fset.Position(n.obj.Pos()).String()
			case n.fn != nil:
				at = fmt.Sprintf("%s#%d", n.fn.FullName(), n.idx)
			}
			out = append(out, fmt.Sprintf("%s what=%s", at, st.What))
		}
		sort.Strings(out)
		return out
	}
	pa := loadTestProgram(t)
	pb := loadTestProgram(t)
	a := render(pa, seed(pa))
	b := render(pb, seed(pb))
	if len(a) != len(b) {
		t.Fatalf("taint maps differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("taint state diverges:\n  %s\n  %s", a[i], b[i])
		}
	}
}
