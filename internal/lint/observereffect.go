package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ObserverEffect enforces the "telemetry is write-only from the hot path"
// contract of internal/metrics: the disabled-parity guarantee (a run with
// metrics off is byte-identical to one with metrics on) holds only if no
// value *read back* from the observability subsystem — counter loads,
// snapshot fields, histogram stats, the sanctioned wall clock — ever feeds
// simulation state, mapper decisions, or RNG consumption. The analyzer
// taints every metrics read and follows it interprocedurally through
// assignments, returns, call arguments, struct fields, and channel/slice
// element flows; a tainted value reaching a write into a simulation-state
// struct, or an argument of a simulation-package function, is reported.
//
// Values whose static type is declared in internal/metrics (handles,
// recorders, snapshots) are exempt at sinks: wiring the subsystem through
// the stack is plumbing, not feedback.
//
// There is deliberately no suggested fix: a telemetry read feeding the
// simulation is an architectural violation with no mechanical repair.
// Genuinely one-way uses (host-time progress reporting) carry
// //lint:allow observereffect <why>.
var ObserverEffect = &Analyzer{
	Name:         "observereffect",
	Doc:          "values read from internal/metrics must not flow into simulation state, mapper decisions, or RNG consumption",
	NeedsProgram: true,
	Run:          runObserverEffect,
}

// metricsReadFuncs are the functions/methods of the metrics package whose
// results constitute telemetry reads.
var metricsReadFuncs = map[string]bool{
	"Value":    true, // Counter.Value, Gauge.Value
	"Snapshot": true, // Recorder.Snapshot
	"WallNow":  true, // the sanctioned wall clock (host time, not sim time)
}

func runObserverEffect(pass *Pass) error {
	prog := pass.Prog
	tm := prog.Taint("observereffect", func() []Source {
		var srcs []Source
		for _, pkg := range prog.Packages() {
			if !isMetricsPkg(pkg.Path) {
				continue
			}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					switch obj := pkg.Info.Defs[id].(type) {
					case *types.Func:
						if !metricsReadFuncs[obj.Name()] {
							return true
						}
						for i := 0; i < obj.Type().(*types.Signature).Results().Len(); i++ {
							srcs = append(srcs, Source{
								n:    resultNode(obj, i),
								pos:  pkg.Fset.Position(obj.Pos()),
								what: "metrics." + obj.Name(),
							})
						}
					case *types.Var:
						if obj.IsField() && obj.Name() != "_" {
							srcs = append(srcs, Source{
								n:    objNode(obj),
								pos:  pkg.Fset.Position(obj.Pos()),
								what: "metrics field " + obj.Name(),
							})
						}
					}
					return true
				})
			}
		}
		return srcs
	})
	if len(tm) == 0 {
		return nil
	}
	ev := &evaluator{prog: prog, pkg: pass.LintPkg}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkObserverAssign(pass, ev, tm, n)
			case *ast.CompositeLit:
				checkObserverCompositeLit(pass, ev, tm, n)
			case *ast.CallExpr:
				checkObserverCall(pass, ev, tm, n)
			}
			return true
		})
	}
	return nil
}

// checkObserverAssign flags tainted values written into simulation-state
// locations: struct fields of state-package types and state-package
// package-level variables.
func checkObserverAssign(pass *Pass, ev *evaluator, tm TaintMap, n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		target, ok := stateWriteTarget(pass, lhs)
		if !ok {
			continue
		}
		var rhs ast.Expr
		switch {
		case len(n.Rhs) == len(n.Lhs):
			rhs = n.Rhs[i]
		case len(n.Rhs) == 1:
			rhs = n.Rhs[0]
		default:
			continue
		}
		if metricsTyped(pass, lhs) || metricsTyped(pass, rhs) {
			continue
		}
		if hit, ok := tm.Query(ev.origins(rhs)); ok {
			pass.Reportf(n.Pos(),
				"value derived from %s (%s) is written into simulation state (%s); telemetry is write-only from the hot path — restructure, or annotate //lint:allow observereffect <why>",
				hit.What, shortPos(hit.Pos), target)
		}
	}
}

// checkObserverCompositeLit flags tainted values placed into fields of
// state-package struct literals.
func checkObserverCompositeLit(pass *Pass, ev *evaluator, tm TaintMap, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok || !declaredIn(tv.Type, isStatePkg) {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		val := elt
		var field *types.Var
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if key, ok := kv.Key.(*ast.Ident); ok {
				field, _ = pass.Info.Uses[key].(*types.Var)
			}
		} else if i < st.NumFields() {
			field = st.Field(i)
		}
		if field == nil || declaredIn(field.Type(), isMetricsPkg) || metricsTyped(pass, val) {
			continue
		}
		if hit, ok := tm.Query(ev.origins(val)); ok {
			pass.Reportf(val.Pos(),
				"value derived from %s (%s) initializes simulation state (field %s of %s); telemetry is write-only from the hot path — restructure, or annotate //lint:allow observereffect <why>",
				hit.What, shortPos(hit.Pos), field.Name(), tv.Type)
		}
	}
}

// checkObserverCall flags tainted arguments to simulation-package functions
// and methods (mapper decisions, RNG consumption, state mutation APIs).
func checkObserverCall(pass *Pass, ev *evaluator, tm TaintMap, call *ast.CallExpr) {
	fn := ev.staticCallee(call)
	if fn == nil || fn.Pkg() == nil || !isStatePkg(fn.Pkg().Path()) {
		return
	}
	for _, arg := range call.Args {
		if metricsTyped(pass, arg) {
			continue
		}
		if hit, ok := tm.Query(ev.origins(arg)); ok {
			pass.Reportf(arg.Pos(),
				"value derived from %s (%s) is passed into %s.%s; telemetry must not steer the simulation — restructure, or annotate //lint:allow observereffect <why>",
				hit.What, shortPos(hit.Pos), fn.Pkg().Name(), fn.Name())
		}
	}
}

// stateWriteTarget reports whether lhs writes simulation state: a field of a
// struct declared in a state package, or a package-level variable of a state
// package. Local variables are intermediate flow, not state.
func stateWriteTarget(pass *Pass, lhs ast.Expr) (string, bool) {
	switch x := lhs.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			field := sel.Obj()
			if field.Pkg() != nil && isStatePkg(field.Pkg().Path()) && !declaredIn(field.Type(), isMetricsPkg) {
				return fmt.Sprintf("field %s.%s", field.Pkg().Name(), field.Name()), true
			}
		}
	case *ast.Ident:
		if obj, ok := pass.Info.Uses[x].(*types.Var); ok {
			if obj.Pkg() != nil && isStatePkg(obj.Pkg().Path()) && obj.Parent() == obj.Pkg().Scope() {
				return fmt.Sprintf("package variable %s.%s", obj.Pkg().Name(), obj.Name()), true
			}
		}
	case *ast.IndexExpr:
		return stateWriteTarget(pass, x.X)
	case *ast.StarExpr:
		return stateWriteTarget(pass, x.X)
	case *ast.ParenExpr:
		return stateWriteTarget(pass, x.X)
	}
	return "", false
}

// metricsTyped reports whether e's static type is declared in the metrics
// package — handle/recorder/snapshot plumbing, exempt at sinks.
func metricsTyped(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && declaredIn(tv.Type, isMetricsPkg)
}

// shortPos renders a source position with the file's base name only, keeping
// diagnostics stable across checkouts.
func shortPos(p fmt.Stringer) string {
	return pkgBase(p.String())
}
