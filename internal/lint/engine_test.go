package lint

import (
	"fmt"
	"go/types"
	"sort"
	"testing"
)

// TestXformLattice pins the bit-bound transform algebra the taint engine
// rests on: apply/compose agreement, join as pointwise maximum, and
// clamping.
func TestXformLattice(t *testing.T) {
	mask32 := capAt(32)
	shr3 := xform{add: -3, cap: 64}
	shl2 := xform{add: 2, cap: 64}

	cases := []struct {
		name string
		tf   xform
		in   int
		want int
	}{
		{"identity", identity, 40, 40},
		{"mask caps", mask32, 40, 32},
		{"mask no-op below cap", mask32, 12, 12},
		{"shift right", shr3, 40, 37},
		{"shift left", shl2, 40, 42},
		{"clamp low", xform{add: -80, cap: 64}, 40, 0},
		{"clamp high", xform{add: 80, cap: 64}, 40, 64},
	}
	for _, c := range cases {
		if got := c.tf.apply(c.in); got != c.want {
			t.Errorf("%s: apply(%d) = %d, want %d", c.name, c.in, got, c.want)
		}
	}

	// Composition must agree with sequential application on sample bounds.
	pairs := []struct{ a, b xform }{
		{mask32, shr3}, {shr3, mask32}, {shl2, mask32}, {mask32, capAt(16)},
		{xform{add: 5, cap: 20}, xform{add: -2, cap: 64}},
	}
	for _, p := range pairs {
		c := p.a.compose(p.b)
		for _, in := range []int{0, 8, 16, 33, 40, 64} {
			if got, want := c.apply(in), p.b.apply(p.a.apply(in)); got != want {
				t.Errorf("compose(%v, %v).apply(%d) = %d, want %d (sequential)", p.a, p.b, in, got, want)
			}
		}
	}

	// Join is conservative: never below either side.
	j := mask32.join(shr3)
	for _, in := range []int{0, 16, 40, 64} {
		if j.apply(in) < mask32.apply(in) || j.apply(in) < shr3.apply(in) {
			t.Errorf("join(%v, %v).apply(%d) = %d under-approximates", mask32, shr3, in, j.apply(in))
		}
	}
}

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

// TestTransferSummary pins the per-function digest: bitwidth.shift drops
// three bits from parameter 0 to result 0.
func TestTransferSummary(t *testing.T) {
	p := loadTestProgram(t)
	shift := lookupFunc(t, p, "bitwidth", "shift")
	sum := p.Summary(shift)
	tf, ok := sum[0][0]
	if !ok {
		t.Fatalf("Summary(shift) = %v, want param 0 → result 0", sum)
	}
	if got := tf.apply(40); got != 37 {
		t.Errorf("shift summary transforms 40 → %d, want 37", got)
	}

	// launder (observereffect testdata) adds one bit of slack but still
	// forwards its parameter.
	launder := lookupFunc(t, p, "observereffect", "launder")
	sum = p.Summary(launder)
	if _, ok := sum[0][0]; !ok {
		t.Fatalf("Summary(launder) = %v, want param 0 → result 0", sum)
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
						n: resultNode(fn, 0), bound: 40,
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
			out = append(out, fmt.Sprintf("%s bound=%d what=%s", at, st.bound, st.what))
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
