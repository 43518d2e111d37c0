// Package lint is a small static-analysis framework plus the project's
// analyzer suite. It enforces, as machine-checked invariants, the contracts
// the simulator's evaluation rests on:
//
//   - determinism: simulation packages must not consult wall-clock time,
//     math/rand, mutable package-level state, or unordered map iteration —
//     the "same seeds ⇒ same activations" replay contract of internal/rng.
//   - bitwidth: line/row address arithmetic must not silently truncate —
//     shifts past the operand width, masks wider than the 40-bit
//     line-address domain, and unguarded narrowing conversions are flagged.
//   - seedflow: every RNG must be seeded from configuration, never from a
//     literal constant, so experiments stay reseedable.
//   - panicpolicy: library packages return errors instead of panicking,
//     except documented programmer-error invariant guards.
//   - observereffect / errdiscard: metrics reads must not feed back into
//     simulation state, and module-internal errors must be handled.
//   - lockdiscipline, goroutineescape: the concurrency-safety gates over
//     the shared concurrency-facts layer.
//   - hotalloc: functions marked `// hot` — and everything they reach
//     through the call graph — must not allocate; `// cold` stops the
//     traversal.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis but is
// built only on the standard library's go/ast and go/types, because this
// repository vendors no third-party dependencies. Findings are suppressed
// with an annotation on the offending line (or the line above):
//
//	//lint:allow <analyzer> <justification>
//
// The justification is mandatory: an allow directive without one does not
// suppress anything. AuditAllows judges the directives themselves: stale
// or unjustified guards and unknown analyzer names are reported by the
// driver's -allow-audit mode.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name is the analyzer identifier used in reports and allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// NeedsProgram requests the whole-module value-flow Program on the pass
	// (built once per Run and shared by every interprocedural analyzer).
	NeedsProgram bool
	// Run inspects one package via the pass and reports findings.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Prog is the interprocedural value-flow view of the whole module; nil
	// unless the analyzer sets NeedsProgram.
	Prog *Program
	// LintPkg is the loaded package under analysis (the same data the
	// fields above expose, plus its import path and directory).
	LintPkg *Package

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fixes holds machine-applicable repairs, best first; rubixlint -fix
	// applies the first one.
	Fixes []SuggestedFix
}

// String formats the diagnostic the way compilers do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Report records a finding at pos with optional suggested fixes.
func (p *Pass) Report(pos token.Pos, message string, fixes ...SuggestedFix) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  message,
		Fixes:    fixes,
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// All returns the project's analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, Bitwidth, Seedflow, Panicpolicy,
		ObserverEffect, ErrDiscard, LockDiscipline, GoroutineEscape, HotAlloc,
	}
}

// ByName resolves an analyzer from the suite by its identifier.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Scope decides which analyzers run on which packages.
type Scope func(a *Analyzer, pkgPath string) bool

// EverythingScope runs every analyzer on every package (used by golden
// tests, which select scope by testdata layout instead).
func EverythingScope(*Analyzer, string) bool { return true }

// scopeClass names one row of the repository scope policy.
type scopeClass int

const (
	// scopeAll gates every package: library code, the command drivers
	// (which own the goroutine fan-outs), and the lint tooling itself.
	scopeAll scopeClass = iota
	// scopeInternal gates library (internal/...) packages.
	scopeInternal
	// scopeSim gates the simulation packages: internal/... minus the lint
	// tool (tooling rather than simulation; may e.g. iterate maps after
	// sorting for report ordering) and minus the service infrastructure
	// (internal/server batches requests with real timers, internal/store
	// persists to disk — wall-clock and syscall nondeterminism is their
	// job, and none of their state feeds back into simulation results).
	scopeSim
	// scopeSimNoMetrics is scopeSim minus internal/metrics, whose own
	// implementation legitimately reads the values it records.
	scopeSimNoMetrics
)

// analyzerScope is the declarative scope pin table: every analyzer in All()
// has exactly one row here (TestAnalyzerScopeTable pins the bijection), so
// adding an analyzer without deciding its scope is a test failure rather
// than a silent fall-through.
var analyzerScope = map[string]scopeClass{
	"seedflow":        scopeAll,
	"errdiscard":      scopeAll,
	"lockdiscipline":  scopeAll,
	"goroutineescape": scopeAll,
	"panicpolicy":     scopeInternal,
	"observereffect":  scopeSimNoMetrics,
	"determinism":     scopeSim,
	"bitwidth":        scopeSim,
	"hotalloc":        scopeSim,
}

// DefaultScope is the repository policy, driven by the analyzerScope pin
// table. An analyzer missing from the table defaults to the narrowest class
// (scopeSim) — but the table test keeps that from happening unnoticed.
func DefaultScope(modulePath string) Scope {
	internalPrefix := modulePath + "/internal/"
	lintPrefix := modulePath + "/internal/lint"
	serverPrefix := modulePath + "/internal/server"
	storePrefix := modulePath + "/internal/store"
	metricsPath := modulePath + "/internal/metrics"
	return func(a *Analyzer, pkgPath string) bool {
		inInternal := strings.HasPrefix(pkgPath, internalPrefix)
		simPkg := inInternal &&
			!strings.HasPrefix(pkgPath, lintPrefix) &&
			!strings.HasPrefix(pkgPath, serverPrefix) &&
			!strings.HasPrefix(pkgPath, storePrefix)
		class, ok := analyzerScope[a.Name]
		if !ok {
			class = scopeSim
		}
		switch class {
		case scopeAll:
			return true
		case scopeInternal:
			return inInternal
		case scopeSimNoMetrics:
			return simPkg && pkgPath != metricsPath
		default:
			return simPkg
		}
	}
}

// rawDiagnostics applies the analyzers to one package and returns the
// findings before allow-directive suppression. The shared value-flow Program
// is built lazily through *prog.
func rawDiagnostics(pkgs []*Package, pkg *Package, analyzers []*Analyzer, scope Scope, prog **Program) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		if !scope(a, pkg.Path) {
			continue
		}
		if a.NeedsProgram && *prog == nil {
			*prog = BuildProgram(pkgs)
		}
		var got []Diagnostic
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Prog:     *prog,
			LintPkg:  pkg,
			diags:    &got,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
		raw = append(raw, got...)
	}
	return raw, nil
}

// sortDiags orders diagnostics by position, then analyzer name.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Run applies the analyzers to the packages under the scope policy, filters
// suppressed findings, and returns the rest ordered by position. The
// whole-module value-flow Program is built once, lazily, and shared by every
// analyzer that requests it.
func Run(pkgs []*Package, analyzers []*Analyzer, scope Scope) ([]Diagnostic, error) {
	var diags []Diagnostic
	var prog *Program
	for _, pkg := range pkgs {
		raw, err := rawDiagnostics(pkgs, pkg, analyzers, scope, &prog)
		if err != nil {
			return nil, err
		}
		allows := collectAllows(pkg)
		for _, d := range raw {
			if !allows.covers(d.Analyzer, d.Pos) {
				diags = append(diags, d)
			}
		}
	}
	sortDiags(diags)
	return diags, nil
}

// AllowDirective is one parsed //lint:allow comment, justified or not.
type AllowDirective struct {
	Pos           token.Position
	Names         []string // analyzer names the directive targets
	Justification string
}

// AuditFinding is one allow-audit result: a directive that should be removed
// (stale — the finding it suppressed no longer fires) or repaired (missing
// the mandatory justification, or naming an unknown analyzer).
type AuditFinding struct {
	Directive AllowDirective
	// Kind is "stale", "unjustified", or "unknown-analyzer".
	Kind string
	// Name is the specific analyzer name within the directive the finding is
	// about (stale and unknown-analyzer findings are per-name).
	Name string
}

// String formats the audit finding the way compilers do.
func (f AuditFinding) String() string {
	p := f.Directive.Pos
	switch f.Kind {
	case "unjustified":
		return fmt.Sprintf("%s:%d: //lint:allow %s has no justification (the directive is ignored; add a reason or delete it)",
			p.Filename, p.Line, strings.Join(f.Directive.Names, ","))
	case "unknown-analyzer":
		return fmt.Sprintf("%s:%d: //lint:allow names unknown analyzer %q", p.Filename, p.Line, f.Name)
	default:
		return fmt.Sprintf("%s:%d: stale //lint:allow %s: no %s finding fires here anymore; remove the guard",
			p.Filename, p.Line, f.Name, f.Name)
	}
}

// AuditAllows re-runs the analyzers without suppression and reports every
// allow directive that no longer earns its keep: stale guards (the named
// analyzer produces no finding on the guarded lines), guards missing the
// mandatory justification, and guards naming analyzers that do not exist. A
// directive at line L covers findings at L and L+1, so a guard is live if a
// raw finding of the named analyzer lands on either line.
func AuditAllows(pkgs []*Package, analyzers []*Analyzer, scope Scope) ([]AuditFinding, error) {
	// Liveness is judged only against the analyzers actually being run;
	// spelling validity is judged against the full registry, so auditing a
	// -only subset neither flags real-but-unselected names as unknown nor
	// declares their guards stale.
	selected := make(map[string]bool)
	for _, a := range analyzers {
		selected[a.Name] = true
	}

	var out []AuditFinding
	var prog *Program
	for _, pkg := range pkgs {
		// A package no selected analyzer covers contributes no raw findings,
		// so judging its guards would report every one of them stale. The
		// whole module stays loaded for the value-flow graph; only packages
		// inside the requested scope are audited.
		inScope := false
		for _, a := range analyzers {
			if scope(a, pkg.Path) {
				inScope = true
				break
			}
		}
		if !inScope {
			continue
		}
		raw, err := rawDiagnostics(pkgs, pkg, analyzers, scope, &prog)
		if err != nil {
			return nil, err
		}
		// live marks directive lines a raw finding keeps alive (the
		// finding's own line and the line above it).
		live := make(allowSet)
		for _, d := range raw {
			live[allowKey{d.Analyzer, d.Pos.Filename, d.Pos.Line}] = true
			live[allowKey{d.Analyzer, d.Pos.Filename, d.Pos.Line - 1}] = true
		}
		for _, dir := range collectAllowDirectives(pkg) {
			if strings.TrimSpace(dir.Justification) == "" {
				out = append(out, AuditFinding{Directive: dir, Kind: "unjustified"})
				continue
			}
			for _, name := range dir.Names {
				if _, known := ByName(name); !known {
					out = append(out, AuditFinding{Directive: dir, Kind: "unknown-analyzer", Name: name})
					continue
				}
				if !selected[name] {
					continue // registered analyzer, not in this run: liveness unknowable
				}
				if !live.covers(name, dir.Pos) {
					out = append(out, AuditFinding{Directive: dir, Kind: "stale", Name: name})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Directive.Pos.Filename != b.Directive.Pos.Filename {
			return a.Directive.Pos.Filename < b.Directive.Pos.Filename
		}
		if a.Directive.Pos.Line != b.Directive.Pos.Line {
			return a.Directive.Pos.Line < b.Directive.Pos.Line
		}
		return a.Name < b.Name
	})
	return out, nil
}

// allowKey identifies one suppressed (analyzer, file, line).
type allowKey struct {
	analyzer string
	file     string
	line     int
}

type allowSet map[allowKey]bool

// covers reports whether a valid allow directive targets the diagnostic.
func (s allowSet) covers(analyzer string, pos token.Position) bool {
	return s[allowKey{analyzer, pos.Filename, pos.Line}]
}

// collectAllowDirectives parses every //lint:allow comment in the package,
// including unjustified ones (Run ignores those; the allow audit reports
// them).
func collectAllowDirectives(pkg *Package) []AllowDirective {
	var out []AllowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow ")
				if !ok {
					continue
				}
				names, justification, _ := strings.Cut(strings.TrimSpace(text), " ")
				dir := AllowDirective{
					Pos:           pkg.Fset.Position(c.Pos()),
					Justification: strings.TrimSpace(justification),
				}
				for _, name := range strings.Split(names, ",") {
					if name = strings.TrimSpace(name); name != "" {
						dir.Names = append(dir.Names, name)
					}
				}
				if len(dir.Names) > 0 {
					out = append(out, dir)
				}
			}
		}
	}
	return out
}

// collectAllows indexes the justified allow directives for suppression. A
// directive suppresses the named analyzers on its own line and on the
// following line, so it can ride at the end of the offending line or stand
// alone above it. Directives without a justification are ignored.
func collectAllows(pkg *Package) allowSet {
	s := make(allowSet)
	for _, dir := range collectAllowDirectives(pkg) {
		if dir.Justification == "" {
			continue // a bare directive documents nothing; not honored
		}
		for _, name := range dir.Names {
			s[allowKey{name, dir.Pos.Filename, dir.Pos.Line}] = true
			s[allowKey{name, dir.Pos.Filename, dir.Pos.Line + 1}] = true
		}
	}
	return s
}
