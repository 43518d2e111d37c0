package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rubix/internal/lint"
)

// copyFixtures copies golden testdata packages into a scratch source root,
// so a test can apply fixes without touching the fixtures.
func copyFixtures(t *testing.T, pkgs ...string) string {
	t.Helper()
	root := t.TempDir()
	for _, pkg := range pkgs {
		srcDir := filepath.Join("testdata", "src", pkg)
		pkgDir := filepath.Join(root, pkg)
		if err := os.MkdirAll(pkgDir, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(srcDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(pkgDir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return root
}

// TestAnnotationFixIdempotent applies lockdiscipline's `// guarded by`
// annotation fix to a scratch copy of the golden package and verifies the
// contract printed on SuggestedFix: after one -fix pass the annotation
// findings are gone and a second pass has nothing left to edit.
func TestAnnotationFixIdempotent(t *testing.T) {
	root := copyFixtures(t, "lockdiscipline")

	run := func() ([]lint.Diagnostic, map[string][]byte) {
		pkgs, err := lint.NewLoader(root, "").LoadAll()
		if err != nil {
			t.Fatalf("loading scratch copy: %v", err)
		}
		diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.LockDiscipline}, lint.EverythingScope)
		if err != nil {
			t.Fatal(err)
		}
		var fset = pkgs[0].Fset
		contents, _, _, err := lint.ApplyFixes(fset, diags)
		if err != nil {
			t.Fatal(err)
		}
		return diags, contents
	}

	diags, contents := run()
	annotations := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "does not record the invariant") {
			annotations++
		}
	}
	if annotations == 0 {
		t.Fatal("scratch copy produced no annotation findings; fixture drifted")
	}
	if len(contents) == 0 {
		t.Fatal("annotation fixes produced no edits")
	}
	patched := false
	for file, data := range contents {
		if strings.Contains(string(data), "; guarded by mu") {
			patched = true
		}
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !patched {
		t.Fatal("patched sources missing the inserted `; guarded by mu` annotation")
	}

	diags2, contents2 := run()
	for _, d := range diags2 {
		if strings.Contains(d.Message, "does not record the invariant") {
			t.Errorf("annotation finding survived the fix: %s", d)
		}
	}
	if len(contents2) != 0 {
		t.Errorf("second -fix pass still wants to edit %d file(s); fix not idempotent", len(contents2))
	}
	// The access findings (which carry no fix) must be unchanged by the
	// annotation pass: it documents the invariant, it does not alter code.
	accesses := func(ds []lint.Diagnostic) int {
		n := 0
		for _, d := range ds {
			if strings.Contains(d.Message, "without mu held") || strings.Contains(d.Message, "without rw held") {
				n++
			}
		}
		return n
	}
	if a, b := accesses(diags), accesses(diags2); a != b {
		t.Errorf("access findings changed across the fix: %d → %d", a, b)
	}
}

// TestAddrAnnotationFixIdempotent applies addrspace's `// addr:` annotation
// fix to a scratch copy of the geom golden package and verifies the same
// convergence contract as the lockdiscipline fix: one pass annotates the
// inferred field, the second pass finds nothing left to edit.
func TestAddrAnnotationFixIdempotent(t *testing.T) {
	root := copyFixtures(t, "geom")

	run := func() ([]lint.Diagnostic, map[string][]byte) {
		pkgs, err := lint.NewLoader(root, "").LoadAll()
		if err != nil {
			t.Fatalf("loading scratch copy: %v", err)
		}
		diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.AddrSpace}, lint.EverythingScope)
		if err != nil {
			t.Fatal(err)
		}
		contents, _, _, err := lint.ApplyFixes(pkgs[0].Fset, diags)
		if err != nil {
			t.Fatal(err)
		}
		return diags, contents
	}

	diags, contents := run()
	inferred := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "does not record the domain") {
			inferred++
		}
	}
	if inferred == 0 {
		t.Fatal("scratch copy produced no inference findings; fixture drifted")
	}
	if len(contents) == 0 {
		t.Fatal("annotation fixes produced no edits")
	}
	patched := false
	for file, data := range contents {
		if strings.Contains(string(data), "addr: row") {
			patched = true
		}
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !patched {
		t.Fatal("patched sources missing the inserted `addr: row` annotation")
	}

	diags2, contents2 := run()
	for _, d := range diags2 {
		if strings.Contains(d.Message, "does not record the domain") {
			t.Errorf("inference finding survived the fix: %s", d)
		}
	}
	if len(contents2) != 0 {
		t.Errorf("second -fix pass still wants to edit %d file(s); fix not idempotent", len(contents2))
	}
}

// TestMaskFixIdempotent applies bitwidth's narrowing mask fix to a scratch
// copy of the golden package: every unsigned narrowing gets its mask, the
// signed one keeps its finding (a narrower mask would change the value),
// and a second pass has nothing left to edit.
func TestMaskFixIdempotent(t *testing.T) {
	root := copyFixtures(t, "bitwidth", "mapping")
	run := func() ([]lint.Diagnostic, map[string][]byte) {
		pkgs, err := lint.NewLoader(root, "").LoadAll()
		if err != nil {
			t.Fatalf("loading scratch copy: %v", err)
		}
		diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.Bitwidth}, lint.EverythingScope)
		if err != nil {
			t.Fatal(err)
		}
		contents, _, _, err := lint.ApplyFixes(pkgs[0].Fset, diags)
		if err != nil {
			t.Fatal(err)
		}
		return diags, contents
	}
	narrowings := func(ds []lint.Diagnostic) (fixable, unfixable int) {
		for _, d := range ds {
			if !strings.Contains(d.Message, "narrowing conversion") {
				continue
			}
			if len(d.Fixes) > 0 {
				fixable++
			} else {
				unfixable++
			}
		}
		return fixable, unfixable
	}

	diags, contents := run()
	if fixable, unfixable := narrowings(diags); fixable != 5 || unfixable != 1 {
		t.Fatalf("narrowing findings: %d fixable, %d unfixable; want 5 and 1 (fixture drifted)", fixable, unfixable)
	}
	var patched strings.Builder
	for file, data := range contents {
		patched.Write(data)
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{
		"uint32(line & 0xffffffff)", "uint32(row & 0xffffffff)", "uint16(r & 0xffff)", "uint32((base + off) & 0xffffffff)",
	} {
		if !strings.Contains(patched.String(), want) {
			t.Errorf("patched sources missing %q", want)
		}
	}

	diags2, contents2 := run()
	if fixable, unfixable := narrowings(diags2); fixable != 0 || unfixable != 1 {
		t.Errorf("after the fix: %d fixable, %d unfixable narrowing findings; want 0 and 1", fixable, unfixable)
	}
	if len(contents2) != 0 {
		t.Errorf("second -fix pass still wants to edit %d file(s); fix not idempotent", len(contents2))
	}
}
