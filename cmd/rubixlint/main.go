// Command rubixlint runs the project's static-analysis suite (see
// internal/lint: determinism, bitwidth, seedflow, panicpolicy, the
// interprocedural observereffect and errdiscard analyzers, the concurrency
// gates lockdiscipline and goroutineescape, and hotalloc) over the module.
//
// Usage:
//
//	go run ./cmd/rubixlint ./...
//	go run ./cmd/rubixlint -fix ./internal/dram ./internal/sim
//	go run ./cmd/rubixlint -sarif ./... > lint.sarif
//	go run ./cmd/rubixlint -only observereffect,hotalloc ./...
//	go run ./cmd/rubixlint -allow-audit ./...
//
// With no arguments (or "./...") the whole module is checked. The whole
// module is always *loaded* — the interprocedural analyzers need the full
// value-flow graph — and patterns only narrow which packages findings are
// reported for.
//
// Flags:
//
//	-fix          apply the first suggested fix of every finding in place
//	-sarif        emit findings as minimal SARIF 2.1.0 instead of text
//	-only names   run only the named analyzers (comma-separated); an
//	              unknown name is a usage error (exit 2)
//	-allow-audit  audit //lint:allow directives instead of reporting
//	              findings: stale guards (the suppressed finding no longer
//	              fires), guards with no justification, and guards naming
//	              unknown analyzers all fail the run
//
// Exit status: 0 when clean, 1 when findings survive the //lint:allow
// annotations (or -fix left unfixable findings, or -allow-audit found bad
// guards), 2 on load, usage, or internal errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rubix/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rubixlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fix := fs.Bool("fix", false, "apply the first suggested fix of every finding in place")
	asSARIF := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	audit := fs.Bool("allow-audit", false, "audit //lint:allow directives: fail on stale or unjustified guards")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rubixlint [-fix] [-sarif] [-only names] [-allow-audit] [packages]\n\nRuns the project invariants suite over the module.\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "rubixlint:", err)
		fs.Usage()
		return 2
	}

	root, modulePath, err := lint.FindModule(".")
	if err != nil {
		fmt.Fprintln(stderr, "rubixlint:", err)
		return 2
	}
	pkgs, err := lint.NewLoader(root, modulePath).LoadAll()
	if err != nil {
		fmt.Fprintln(stderr, "rubixlint:", err)
		return 2
	}
	scope, err := patternScope(pkgs, fs.Args(), root, modulePath)
	if err != nil {
		fmt.Fprintln(stderr, "rubixlint:", err)
		return 2
	}

	if *audit {
		findings, err := lint.AuditAllows(pkgs, analyzers, scope)
		if err != nil {
			fmt.Fprintln(stderr, "rubixlint:", err)
			return 2
		}
		for _, f := range findings {
			s := f.String()
			if rel, rerr := filepath.Rel(root, f.Directive.Pos.Filename); rerr == nil {
				s = strings.Replace(s, f.Directive.Pos.Filename, rel, 1)
			}
			fmt.Fprintln(stdout, s)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stderr, "rubixlint: %d allow-audit finding(s)\n", len(findings))
			return 1
		}
		return 0
	}

	diags, err := lint.Run(pkgs, analyzers, scope)
	if err != nil {
		fmt.Fprintln(stderr, "rubixlint:", err)
		return 2
	}

	if *fix {
		fset := pkgs[0].Fset
		contents, applied, unfixed, err := lint.ApplyFixes(fset, diags)
		if err != nil {
			fmt.Fprintln(stderr, "rubixlint:", err)
			return 2
		}
		for file, data := range contents { // key extraction not needed: write each
			if err := os.WriteFile(file, data, 0o644); err != nil {
				fmt.Fprintln(stderr, "rubixlint:", err)
				return 2
			}
		}
		if applied > 0 {
			fmt.Fprintf(stderr, "rubixlint: applied %d fix(es)\n", applied)
		}
		diags = unfixed
	}

	if *asSARIF {
		if err := writeSARIF(stdout, root, diags); err != nil {
			fmt.Fprintln(stderr, "rubixlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "rubixlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only flag: an empty spec selects the full
// suite, otherwise each comma-separated name must match a registered
// analyzer exactly (a typo silently running zero analyzers would read as a
// clean tree, so unknown names are a usage error).
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	if spec == "" {
		return lint.All(), nil
	}
	var out []*lint.Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := lint.ByName(name)
		if !ok {
			return nil, fmt.Errorf("-only: unknown analyzer %q", name)
		}
		if !seen[a.Name] {
			seen[a.Name] = true
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only: no analyzers selected from %q", spec)
	}
	return out, nil
}

// patternScope composes the repository scope policy with the requested
// package patterns. The whole module stays loaded — the value-flow graph
// spans it — and patterns only narrow which packages findings are reported
// for.
func patternScope(pkgs []*lint.Package, patterns []string, root, modulePath string) (lint.Scope, error) {
	base := lint.DefaultScope(modulePath)
	if len(patterns) == 0 {
		return base, nil
	}
	selected := make(map[string]bool)
	all := false
	for _, pat := range patterns {
		prefix, recursive := strings.CutSuffix(pat, "/...")
		if prefix == "." || prefix == "./" || pat == "./..." {
			all = true
			continue
		}
		abs, err := filepath.Abs(strings.TrimSuffix(prefix, "/"))
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("pattern %q is outside the module", pat)
		}
		want := modulePath
		if rel != "." {
			want = modulePath + "/" + filepath.ToSlash(rel)
		}
		matched := false
		for _, p := range pkgs {
			if p.Path == want || (recursive && strings.HasPrefix(p.Path, want+"/")) {
				matched = true
				selected[p.Path] = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	if all {
		return base, nil
	}
	return func(a *lint.Analyzer, pkgPath string) bool {
		return selected[pkgPath] && base(a, pkgPath)
	}, nil
}

// SARIF 2.1.0 minimal shapes — just enough for code-scanning upload.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func writeSARIF(w io.Writer, root string, diags []lint.Diagnostic) error {
	var rules []sarifRule
	for _, a := range lint.All() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: file},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "rubixlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
