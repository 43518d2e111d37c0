package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module and chdirs into it, so run()
// resolves it via FindModule.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, content := range files { // key extraction not needed: write each
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)
	return dir
}

// chdir is t.Chdir without the go1.24 floor the rest of the module avoids.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

const libSrc = `// Package lib is a fixture.
package lib

import "errors"

// New may fail.
func New(n int) (int, error) {
	if n <= 0 {
		return 0, errors.New("lib: n must be positive")
	}
	return n, nil
}
`

// TestExitCodeClean pins exit 0 on a module without findings.
func TestExitCodeClean(t *testing.T) {
	writeModule(t, map[string]string{
		"lib/lib.go": libSrc,
		"use/use.go": `// Package use is a fixture.
package use

import "tmpmod/lib"

// Get propagates.
func Get() (int, error) {
	return lib.New(1)
}
`,
	})
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

const discardSrc = `// Package use is a fixture.
package use

import "tmpmod/lib"

// Get drops the error.
func Get() (int, error) {
	v, _ := lib.New(1)
	return v, nil
}
`

// TestExitCodeFindings pins exit 1 when findings survive.
func TestExitCodeFindings(t *testing.T) {
	writeModule(t, map[string]string{
		"lib/lib.go": libSrc,
		"use/use.go": discardSrc,
	})
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "errdiscard") {
		t.Errorf("stdout missing errdiscard finding:\n%s", out.String())
	}
}

// TestExitCodeLoadError pins exit 2 on unparsable source.
func TestExitCodeLoadError(t *testing.T) {
	writeModule(t, map[string]string{
		"lib/lib.go": "package lib\n\nfunc Broken( {\n",
	})
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

// TestFixIdempotent pins the -fix contract: the first run repairs the tree,
// the second finds nothing and changes nothing.
func TestFixIdempotent(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"lib/lib.go": libSrc,
		"use/use.go": discardSrc,
	})
	var out, errb bytes.Buffer
	code := run([]string{"-fix"}, &out, &errb)
	if code != 0 {
		t.Fatalf("first -fix run: exit = %d, want 0 (all findings fixable)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "use/use.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "v, err := lib.New(1)") ||
		!strings.Contains(string(fixed), "return 0, err") {
		t.Fatalf("fix not applied as expected:\n%s", fixed)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-fix"}, &out, &errb); code != 0 {
		t.Fatalf("second -fix run: exit = %d, want 0\nstderr: %s", code, errb.String())
	}
	again, err := os.ReadFile(filepath.Join(dir, "use/use.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixed, again) {
		t.Errorf("-fix is not idempotent:\nfirst:\n%s\nsecond:\n%s", fixed, again)
	}
}

// TestOnlyUnknownAnalyzer pins the -only contract: a typo'd analyzer name is
// a usage error (exit 2), never a silently clean run.
func TestOnlyUnknownAnalyzer(t *testing.T) {
	writeModule(t, map[string]string{"lib/lib.go": libSrc})
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "errdiscard,nosuchanalyzer"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "nosuchanalyzer") {
		t.Errorf("stderr does not name the unknown analyzer:\n%s", errb.String())
	}
}

// TestOnlySelects pins that -only narrows the suite: the errdiscard finding
// fires under -only errdiscard and disappears under -only determinism.
func TestOnlySelects(t *testing.T) {
	writeModule(t, map[string]string{
		"lib/lib.go": libSrc,
		"use/use.go": discardSrc,
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "errdiscard"}, &out, &errb); code != 1 {
		t.Fatalf("-only errdiscard: exit = %d, want 1\nstderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-only", "determinism"}, &out, &errb); code != 0 {
		t.Fatalf("-only determinism: exit = %d, want 0\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
}

// TestAllowAudit pins -allow-audit: a stale guard and an unjustified guard
// each fail the run with a named finding; a live justified guard passes.
func TestAllowAudit(t *testing.T) {
	writeModule(t, map[string]string{
		"lib/lib.go": libSrc,
		"use/use.go": `// Package use is a fixture.
package use

import "tmpmod/lib"

// Get drops the error, guarded with a reason.
func Get() (int, error) {
	//lint:allow errdiscard fixture exercises the guard path
	v, _ := lib.New(1)
	return v, nil
}

// Stale carries a guard with nothing left to suppress.
func Stale() (int, error) {
	//lint:allow errdiscard nothing fires here anymore
	return lib.New(1)
}

// Bare carries a guard with no justification.
func Bare() (int, error) {
	//lint:allow errdiscard
	v, _ := lib.New(2)
	return v, nil
}
`,
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-allow-audit"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "stale") {
		t.Errorf("audit output missing stale finding:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "justification") {
		t.Errorf("audit output missing unjustified finding:\n%s", out.String())
	}
	if strings.Contains(out.String(), "exercises the guard path") {
		t.Errorf("live justified guard was reported:\n%s", out.String())
	}
}

// TestAllowAuditClean pins exit 0 when every guard is live and justified.
func TestAllowAuditClean(t *testing.T) {
	writeModule(t, map[string]string{
		"lib/lib.go": libSrc,
		"use/use.go": `// Package use is a fixture.
package use

import "tmpmod/lib"

// Get drops the error under a justified guard.
func Get() (int, error) {
	//lint:allow errdiscard fixture exercises the guard path
	v, _ := lib.New(1)
	return v, nil
}
`,
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-allow-audit"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

// TestAllowAuditPatternScope pins that auditing a package subset leaves
// guards in dependency packages alone: analyzers never ran there, so judging
// them would report every one stale.
func TestAllowAuditPatternScope(t *testing.T) {
	writeModule(t, map[string]string{
		"lib/lib.go": `// Package lib is a fixture.
package lib

import "errors"

// New returns n or an error.
func New(n int) (int, error) {
	if n < 0 {
		return 0, errors.New("negative")
	}
	return n, nil
}

// Probe drops the error under a guard that is live when lib is audited.
func Probe() int {
	//lint:allow errdiscard fixture: the probe tolerates failure
	v, _ := New(1)
	return v
}
`,
		"use/use.go": `// Package use is a fixture.
package use

import "tmpmod/lib"

// Get drops the error under a justified guard.
func Get() (int, error) {
	//lint:allow errdiscard fixture exercises the guard path
	v, _ := lib.New(1)
	return v, nil
}
`,
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-allow-audit", "./use"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "lib.go") {
		t.Errorf("out-of-pattern guard was audited:\n%s", out.String())
	}
}

// TestAllowAuditOnlySubset pins that auditing under -only skips guards
// naming registered-but-unselected analyzers (their liveness is unknowable
// in this run) while still flagging genuinely unknown names.
func TestAllowAuditOnlySubset(t *testing.T) {
	writeModule(t, map[string]string{
		"lib/lib.go": libSrc,
		"use/use.go": `// Package use is a fixture.
package use

import "tmpmod/lib"

// Get drops the error under a justified guard; the determinism guard names
// a real analyzer outside the -only selection and the nosuchlint guard
// names nothing.
func Get() (int, error) {
	//lint:allow determinism fixture: not judged when unselected
	//lint:allow nosuchlint fixture: never registered
	//lint:allow errdiscard fixture exercises the guard path
	v, _ := lib.New(1)
	return v, nil
}
`,
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-allow-audit", "-only", "errdiscard"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "nosuchlint") {
		t.Errorf("unknown-analyzer guard not reported:\n%s", out.String())
	}
	if strings.Contains(out.String(), "determinism") {
		t.Errorf("unselected analyzer's guard was judged:\n%s", out.String())
	}
}

// TestSARIFOutput pins the -sarif envelope.
func TestSARIFOutput(t *testing.T) {
	writeModule(t, map[string]string{
		"lib/lib.go": libSrc,
		"use/use.go": discardSrc,
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-sarif"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb.String())
	}
	var log sarifLog
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "rubixlint" || len(run.Results) != 1 {
		t.Fatalf("unexpected SARIF run: driver %q, %d results", run.Tool.Driver.Name, len(run.Results))
	}
	if got := run.Results[0].RuleID; got != "errdiscard" {
		t.Errorf("ruleId = %q, want errdiscard", got)
	}
	if len(run.Tool.Driver.Rules) == 0 {
		t.Error("SARIF rules table is empty")
	}
}

// TestFlagConflict pins exit 2, before any output, on a flag outside the
// four the driver defines — here the retired -json beside -sarif.
func TestFlagConflict(t *testing.T) {
	writeModule(t, map[string]string{"lib/lib.go": libSrc})
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-sarif"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("unknown flag produced output:\n%s", out.String())
	}
}
