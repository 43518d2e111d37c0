package lint

import (
	"go/types"
	"testing"
)

// concFactsFor loads the golden testdata tree and builds its concurrency
// facts once per test.
func concFactsFor(t *testing.T) (*Program, *concFacts) {
	t.Helper()
	p := loadTestProgram(t)
	return p, p.concurrency()
}

// findFunc resolves a function or method by its FullName, e.g.
// "(lockdiscipline.Counter).Inc" or "goroutineescape.Pooled".
func findFunc(t *testing.T, p *Program, fullName string) *types.Func {
	t.Helper()
	for fn := range p.fns {
		if fn.FullName() == fullName {
			return fn
		}
	}
	t.Fatalf("function %q not found in program", fullName)
	return nil
}

// findField resolves a struct field object by owner type name and field name.
func findField(t *testing.T, f *concFacts, owner, name string) *types.Var {
	t.Helper()
	for fv, info := range f.fieldDecl {
		if fv.Name() != name || info.owner == nil {
			continue
		}
		if info.owner.Obj().Name() == owner {
			return fv
		}
	}
	t.Fatalf("field %s.%s not found in fieldDecl", owner, name)
	return nil
}

// TestLockRegions pins the held-set walk on the lockdiscipline fixtures:
// plain Lock/Unlock pairs, deferred unlocks (held to the end), and unlocked
// accesses, per access site of Counter.n.
func TestLockRegions(t *testing.T) {
	_, f := concFactsFor(t)
	n := findField(t, f, "Counter", "n")
	mu := findField(t, f, "Counter", "mu")

	holdsByFn := make(map[string]bool)
	for _, fa := range f.fields {
		if fa.field != n || fa.fn == nil {
			continue
		}
		holdsByFn[fa.fn.Name()] = fa.holds.holdsAny(mu)
	}
	want := map[string]bool{
		"Inc":  true,  // Lock/Unlock pair
		"Dec":  true,  // defer Unlock holds to the end
		"Set":  true,  // Lock/Unlock pair
		"Peek": false, // no lock at all
		"Racy": false, // suppressed in reports, but the fact is unlocked
	}
	for fn, held := range want {
		got, ok := holdsByFn[fn]
		if !ok {
			t.Errorf("no access fact for Counter.n in %s", fn)
			continue
		}
		if got != held {
			t.Errorf("%s: holdsAny(mu) = %v, want %v", fn, got, held)
		}
	}
}

// TestLockModes pins read/write mode tracking on the RWMutex fixture: Lock
// acquires exclusively, RLock does not.
func TestLockModes(t *testing.T) {
	_, f := concFactsFor(t)
	avg := findField(t, f, "Stats", "avg")
	rw := findField(t, f, "Stats", "rw")

	for _, fa := range f.fields {
		if fa.field != avg || fa.fn == nil {
			continue
		}
		switch fa.fn.Name() {
		case "SetA", "SetB":
			if !fa.holds.holdsWrite(rw) {
				t.Errorf("%s: rw should be held exclusively", fa.fn.Name())
			}
		case "Read", "BadWrite":
			if !fa.holds.holdsAny(rw) || fa.holds.holdsWrite(rw) {
				t.Errorf("%s: rw should be held in read mode only", fa.fn.Name())
			}
		}
	}
}

// TestEntryHeld pins the must-hold fixpoint on the interprocedural fixtures:
// grow (all callers locked) inherits mu, shrink (one unlocked caller) does
// not.
func TestEntryHeld(t *testing.T) {
	p, f := concFactsFor(t)
	mu := findField(t, f, "Table", "mu")
	grow := findFunc(t, p, "(*lockdiscipline.Table).grow")
	shrink := findFunc(t, p, "(*lockdiscipline.Table).shrink")

	if !f.entryHeld[grow].holdsAny(mu) {
		t.Error("grow: entryHeld should include mu (every caller locks)")
	}
	if f.entryHeld[shrink].holdsAny(mu) {
		t.Error("shrink: entryHeld must not include mu (Compact calls it unlocked)")
	}
}

// TestSpawnCaptures pins spawn-site capture sets: a FuncLit spawned by `go`
// captures its free variables, and a closure handed to a worker-pool
// parameter is recognized as a spawn with the same capture rule.
func TestSpawnCaptures(t *testing.T) {
	p, f := concFactsFor(t)

	captures := func(spawner string) map[string]bool {
		out := make(map[string]bool)
		for _, sp := range f.spawns {
			if sp.fn == nil || sp.fn.FullName() != spawner {
				continue
			}
			for _, o := range sp.captured {
				out[o.Name()] = true
			}
		}
		return out
	}

	if got := captures("goroutineescape.Direct"); !got["count"] {
		t.Errorf("Direct's goroutine should capture count, got %v", got)
	}
	if got := captures("(*goroutineescape.Sim).Helper"); !got["s"] {
		t.Errorf("Helper's goroutine should capture the receiver s, got %v", got)
	}
	// Worker pool: the spawn site is the closure passed to Pool, recorded
	// against the calling function Pooled even though the `go` statement
	// lives inside Pool.
	if got := captures("goroutineescape.Pooled"); !got["hits"] {
		t.Errorf("Pooled's pool closure should capture hits, got %v", got)
	}
	_ = p
}

// TestCallHolds pins that call facts carry the held set at the call site:
// Table.Reserve calls grow from inside a loop while holding mu.
func TestCallHolds(t *testing.T) {
	p, f := concFactsFor(t)
	mu := findField(t, f, "Table", "mu")
	reserve := findFunc(t, p, "(*lockdiscipline.Table).Reserve")
	grow := findFunc(t, p, "(*lockdiscipline.Table).grow")

	found := false
	for _, cf := range f.calls {
		if cf.caller == reserve && cf.callee == grow {
			found = true
			if !cf.holds.holdsAny(mu) {
				t.Error("Reserve → grow call site should hold mu (deferred unlock)")
			}
		}
	}
	if !found {
		t.Fatal("no call fact for Reserve → grow")
	}
}

// TestGuardAnnotationResolution pins declaration-side parsing: Ledger.total
// carries `// guarded by mu` and resolves to the sibling mutex field.
func TestGuardAnnotationResolution(t *testing.T) {
	_, f := concFactsFor(t)
	total := findField(t, f, "Ledger", "total")
	mu := findField(t, f, "Ledger", "mu")

	info := f.fieldDecl[total]
	if info.guard != "mu" {
		t.Fatalf("annotation text = %q, want mu", info.guard)
	}
	if info.guardObj != mu {
		t.Errorf("annotation resolved to %v, want sibling field mu", info.guardObj)
	}
}
