package lint_test

import (
	"go/ast"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rubix/internal/lint"
	"rubix/internal/lint/linttest"
)

const testdata = "testdata/src"

func TestDeterminism(t *testing.T) {
	linttest.Run(t, testdata, lint.Determinism, "determinism")
}

func TestBitwidth(t *testing.T) {
	linttest.Run(t, testdata, lint.Bitwidth, "bitwidth")
}

// TestAddrWidth pins the address-width cases that bitwidth took over from
// the former address analyzer (testdata/src/bitwidth/address.go): a mapper
// result narrowed directly, one narrowed after the shift helper, and a
// MapBatch element are each flagged exactly once, while the masked,
// annotated, widening and masked-batch functions stay clean. TestBitwidth
// matches the want lines; this test also fails if a case is dropped.
func TestAddrWidth(t *testing.T) {
	pkgs, err := lint.NewLoader(testdata, "").LoadAll()
	if err != nil {
		t.Fatalf("loading testdata: %v", err)
	}
	var file *ast.File
	var target *lint.Package
	for _, p := range pkgs {
		if p.Path != "bitwidth" {
			continue
		}
		target = p
		for _, f := range p.Files {
			if filepath.Base(p.Fset.Position(f.Pos()).Filename) == "address.go" {
				file = f
			}
		}
	}
	if file == nil {
		t.Fatal("testdata/src/bitwidth/address.go not loaded")
	}
	onlyBitwidth := func(_ *lint.Analyzer, path string) bool { return path == "bitwidth" }
	diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.Bitwidth}, onlyBitwidth)
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[string]int)
	for _, fd := range file.Decls {
		fn, ok := fd.(*ast.FuncDecl)
		if !ok {
			continue
		}
		got[fn.Name.Name] = 0
		start := target.Fset.Position(fn.Pos())
		end := target.Fset.Position(fn.End())
		for _, d := range diags {
			if d.Pos.Filename != start.Filename || d.Pos.Offset < start.Offset || d.Pos.Offset > end.Offset {
				continue
			}
			if !strings.Contains(d.Message, "narrowing conversion from 64-bit uint64") {
				t.Errorf("%s: unexpected finding %s", fn.Name.Name, d)
			}
			got[fn.Name.Name]++
		}
	}
	want := map[string]int{
		"Direct": 1, "shift": 0, "Indirect": 1, "Masked": 0, "Allowed": 0, "Wide": 0,
		"MapBatch": 1, "UnmapBatch": 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bitwidth findings per function in address.go = %v, want %v", got, want)
	}
}

func TestSeedflow(t *testing.T) {
	linttest.Run(t, testdata, lint.Seedflow, "seedflow")
}

func TestPanicpolicy(t *testing.T) {
	linttest.Run(t, testdata, lint.Panicpolicy, "panicpolicy")
}

func TestObserverEffect(t *testing.T) {
	linttest.Run(t, testdata, lint.ObserverEffect, "observereffect")
}

func TestErrDiscard(t *testing.T) {
	linttest.Run(t, testdata, lint.ErrDiscard, "errdiscard")
}

func TestLockDiscipline(t *testing.T) {
	linttest.Run(t, testdata, lint.LockDiscipline, "lockdiscipline")
}

func TestGoroutineEscape(t *testing.T) {
	linttest.Run(t, testdata, lint.GoroutineEscape, "goroutineescape")
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, testdata, lint.HotAlloc, "hotalloc")
}

// TestDefaultScope pins the repository policy: which analyzers gate which
// package families.
func TestDefaultScope(t *testing.T) {
	scope := lint.DefaultScope("rubix")
	byName := make(map[string]*lint.Analyzer)
	for _, a := range lint.All() {
		byName[a.Name] = a
	}
	cases := []struct {
		analyzer string
		pkg      string
		want     bool
	}{
		{"determinism", "rubix/internal/sim", true},
		{"determinism", "rubix/internal/lint", false},
		{"determinism", "rubix/internal/server", false},
		{"determinism", "rubix/internal/store", false},
		{"determinism", "rubix/cmd/rubixsim", false},
		{"bitwidth", "rubix/internal/geom", true},
		{"bitwidth", "rubix/internal/lint/linttest", false},
		{"seedflow", "rubix/cmd/rubixsim", true},
		{"seedflow", "rubix/internal/workload", true},
		{"panicpolicy", "rubix/internal/workload", true},
		{"panicpolicy", "rubix/internal/lint", true},
		{"panicpolicy", "rubix/internal/server", true},
		{"panicpolicy", "rubix/examples/quickstart", false},
		{"observereffect", "rubix/internal/sim", true},
		{"observereffect", "rubix/internal/metrics", false},
		{"observereffect", "rubix/internal/lint", false},
		{"observereffect", "rubix/cmd/rubixsim", false},
		{"errdiscard", "rubix/cmd/rubixsim", true},
		{"errdiscard", "rubix/internal/store", true},
		{"errdiscard", "rubix/examples/quickstart", true},
		{"errdiscard", "rubix/internal/kcipher", true},
		{"lockdiscipline", "rubix/internal/sim", true},
		{"lockdiscipline", "rubix/internal/server", true},
		{"lockdiscipline", "rubix/cmd/experiments", true},
		{"lockdiscipline", "rubix/internal/lint/linttest", true},
		{"goroutineescape", "rubix/internal/check", true},
		{"goroutineescape", "rubix/cmd/rubixsim", true},
		{"hotalloc", "rubix/internal/memctrl", true},
		{"hotalloc", "rubix/internal/server", false},
		{"hotalloc", "rubix/examples/quickstart", false},
	}
	for _, c := range cases {
		a := byName[c.analyzer]
		if a == nil {
			t.Fatalf("analyzer %q not registered", c.analyzer)
		}
		if got := scope(a, c.pkg); got != c.want {
			t.Errorf("scope(%s, %s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}

// TestAnalyzerScopeTable pins the bijection between the registered suite and
// the scope pin table: every analyzer has exactly one scope row and every
// row names a registered analyzer.
func TestAnalyzerScopeTable(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range lint.All() {
		names[a.Name] = true
		if _, ok := lint.AnalyzerScope[a.Name]; !ok {
			t.Errorf("analyzer %q registered in All() but missing from analyzerScope", a.Name)
		}
	}
	for name := range lint.AnalyzerScope {
		if !names[name] {
			t.Errorf("analyzerScope row %q names no registered analyzer", name)
		}
	}
	if len(lint.AnalyzerScope) != len(lint.All()) {
		t.Errorf("analyzerScope has %d rows, All() has %d analyzers", len(lint.AnalyzerScope), len(lint.All()))
	}
}

// TestAllowRequiresJustification guards the directive contract: a bare
// //lint:allow without a reason must not suppress findings. The testdata
// package "allowcheck" contains one bare directive over a panic; the
// finding must survive.
func TestAllowRequiresJustification(t *testing.T) {
	linttest.Run(t, testdata, lint.Panicpolicy, "allowcheck")
}
