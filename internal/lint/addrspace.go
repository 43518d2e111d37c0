package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// AddrSpace enforces Rubix's address-domain discipline over the value-flow
// graph: every tracked integer lives in exactly one of four domains —
// logical line, physical (randomized) line, DRAM row coordinate, or K-Cipher
// ciphertext — and may only change domain by passing through a declared
// converter (Mapper.Map/Unmap, kcipher Encrypt/Decrypt, geom's codec) or an
// `// addr:` annotated boundary. The analyzer flags:
//
//   - cross-domain arguments: a phys value fed back into Map (double
//     mapping), a logical line indexing a row-keyed census or tracker table
//     without translation (unmapped indexing), ciphertext escaping without
//     Decrypt;
//   - mixed-domain values: a batch slice or variable reached by two
//     different address domains (one half of it translated, the other not);
//   - writes into `// addr:` pinned fields or variables from a foreign
//     domain.
//
// It also infers domains for unannotated address-named struct fields in the
// domain packages — a field written exclusively with phys values carries
// phys — and suggests the `// addr: <domain>` annotation as an
// autofix, so `rubixlint -fix` converges the tree to a fully-annotated
// state the same way lockdiscipline's `// guarded by` pass does.
var AddrSpace = &Analyzer{
	Name: "addrspace",
	Doc: "address values must stay in their domain (line/phys/row/cipher) " +
		"and cross only through Mapper/geom/cipher conversions; " +
		"inferred-but-unannotated address fields get an `// addr:` " +
		"annotation autofix",
	NeedsProgram: true,
	Run:          runAddrSpace,
}

func runAddrSpace(pass *Pass) error {
	prog := pass.Prog
	facts := prog.domains()

	// Sink checks: call arguments against pinned parameter domains, and
	// assignments into pinned declarations.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCallDomains(pass, facts, n, addrFamily)
			case *ast.AssignStmt:
				checkAssignDomains(pass, facts, n, addrFamily)
			}
			return true
		})
	}

	// Inference: unannotated address-named fields in the domain packages
	// whose incoming flows carry exactly one address domain.
	inferAddrAnnotations(pass, facts)
	return nil
}

// checkCallDomains verifies every argument of a call against the callee's
// pinned parameter domains, and every argument expression against itself
// (mixed-domain detection applies even at unpinned sinks of pinned callees).
func checkCallDomains(pass *Pass, facts *domainFacts, call *ast.CallExpr, family domain) {
	prog := pass.Prog
	ev := &evaluator{prog: prog, pkg: pass.LintPkg}
	fn := ev.staticCallee(call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	outs := facts.outParams[fn]
	anyPinned := false
	for i := 0; i < params.Len(); i++ {
		if _, pinned := facts.pins[objNode(params.At(i))]; pinned {
			anyPinned = true
		}
	}
	if !anyPinned {
		return
	}
	if facts.insideConverter(prog, pass.LintPkg, call.Pos()) {
		return // the converter body is the conversion
	}
	for i, arg := range call.Args {
		j := i
		if j >= params.Len() {
			j = params.Len() - 1 // variadic tail
		}
		if j < 0 {
			break
		}
		want, pinned := facts.pins[objNode(params.At(j))]
		if !pinned || want.family(family) == 0 {
			continue
		}
		if outs != nil && outs[j] != 0 {
			continue // out-slice: filled by the callee, not read from the caller
		}
		if family == unitFamily && unitConverted(arg) {
			continue // explicit multiplicative conversion fixes the unit
		}
		got, hits := prog.domainsOf(pass.LintPkg, arg, family)
		if got == 0 {
			continue // untracked value: the discipline only binds known domains
		}
		want = want.family(family)
		if got == want {
			continue
		}
		if !got.single() {
			pass.Report(arg.Pos(), fmt.Sprintf(
				"mixed-domain value (%s) passed to %s parameter %q of %s: %s",
				got, want, params.At(j).Name(), fn.Name(), describeHits(hits)))
			continue
		}
		pass.Report(arg.Pos(), fmt.Sprintf(
			"%s value passed to %s parameter %q of %s without conversion (%s); "+
				"translate it through the declared converter, or annotate //lint:allow addrspace <why>",
			got, want, params.At(j).Name(), fn.Name(), describeHits(hits)))
	}
}

// checkAssignDomains verifies assignments into pinned declarations: the
// right-hand side must carry the declared domain (or be untracked).
func checkAssignDomains(pass *Pass, facts *domainFacts, n *ast.AssignStmt, family domain) {
	prog := pass.Prog
	ev := &evaluator{prog: prog, pkg: pass.LintPkg}
	if facts.insideConverter(prog, pass.LintPkg, n.Pos()) {
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break // tuple assignment: call results carry their own pins
		}
		target := ev.lvalueNode(lhs)
		if target == (node{}) {
			continue
		}
		want, pinned := facts.pins[target]
		if !pinned || want.family(family) == 0 {
			continue
		}
		if family == unitFamily && unitConverted(n.Rhs[i]) {
			continue // explicit multiplicative conversion fixes the unit
		}
		got, hits := prog.domainsOf(pass.LintPkg, n.Rhs[i], family)
		if got == 0 {
			continue
		}
		want = want.family(family)
		if got == want {
			continue
		}
		label := "declaration"
		if target.obj != nil {
			label = fmt.Sprintf("%q", target.obj.Name())
		}
		pass.Report(n.Rhs[i].Pos(), fmt.Sprintf(
			"%s value assigned to %s-pinned %s (%s); convert it first, or annotate //lint:allow addrspace <why>",
			got, want, label, describeHits(hits)))
	}
}

// describeHits renders the representative source of each domain bit, in
// lattice order, for diagnostics.
func describeHits(hits map[domain]Hit) string {
	var parts []string
	for _, d := range domainOrder {
		if h, ok := hits[d]; ok {
			parts = append(parts, fmt.Sprintf("%s from %s at %s", d, h.What, shortPos(h.Pos)))
		}
	}
	return strings.Join(parts, "; ")
}

// inferAddrAnnotations proposes `// addr: <domain>` annotations for
// unannotated, address-named struct fields in the domain packages whose
// incoming flows carry exactly one address domain.
func inferAddrAnnotations(pass *Pass, facts *domainFacts) {
	if !isAddrDomainPkg(pass.LintPkg.Path) {
		return
	}
	prog := pass.Prog
	reported := make(map[*ast.Field]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					fv, ok := pass.Info.Defs[name].(*types.Var)
					if !ok || reported[fld] {
						continue
					}
					if facts.annotated[fv] {
						continue
					}
					if _, pinned := facts.pins[objNode(fv)]; pinned {
						continue
					}
					if !isAddrCarrier(fv.Type()) || !isAddrName(fv.Name()) && !isAddrSliceVar(fv) {
						continue
					}
					// Which address domains reach the field node?
					var mask domain
					var best Hit
					for _, d := range domainOrder {
						if d&addrFamily == 0 {
							continue
						}
						if st, ok := prog.domainTaint(d)[objNode(fv)]; ok {
							mask |= d
							best = Hit{Bound: st.bound, Pos: st.pos, What: st.what}
						}
					}
					if !mask.single() {
						continue // nothing inferred, or mixed (flagged at the sinks)
					}
					reported[fld] = true
					pass.Report(name.Pos(), fmt.Sprintf(
						"field %s consistently carries %s addresses (e.g. %s) but the declaration does not record the domain",
						fieldLabel(fv), mask, best.What),
						addrAnnotationFix(fld, mask))
				}
			}
			return true
		})
	}
}

// addrNameParts mark an identifier as address-carrying; addrNameVeto
// disqualifies identifiers that merely describe address geometry (widths,
// counts, masks) rather than carrying an address. addrSliceVeto omits the
// plural geometry words: on a scalar "lines" is a count, but a slice named
// "lines" IS a batch of addresses — exactly the values MapBatch moves.
var (
	addrNameParts = []string{"line", "row", "phys", "addr", "gang", "victim", "aggr", "block"}
	addrNameVeto  = []string{"bits", "width", "mask", "count", "per", "size", "rate", "num", "rows", "lines", "blocks"}
	addrSliceVeto = []string{"bits", "width", "mask", "count", "per", "size", "rate", "num"}
)

// isAddrName reports whether a defined identifier names an address value.
func isAddrName(name string) bool { return matchesAddrVocab(name, addrNameVeto) }

// isAddrSliceVar reports whether the variable is a slice of addresses by
// name (the batch vocabulary).
func isAddrSliceVar(fv *types.Var) bool {
	if _, ok := sliceElemIntWidth(fv.Type()); !ok {
		return false
	}
	return matchesAddrVocab(fv.Name(), addrSliceVeto)
}

// matchesAddrVocab reports whether name contains an address word and none of
// the veto words.
func matchesAddrVocab(name string, veto []string) bool {
	l := strings.ToLower(name)
	for _, v := range veto {
		if strings.Contains(l, v) {
			return false
		}
	}
	for _, p := range addrNameParts {
		if strings.Contains(l, p) {
			return true
		}
	}
	return false
}

// sliceElemIntWidth returns the element bit width when t is a slice of
// (unnamed or named) integers.
func sliceElemIntWidth(t types.Type) (int, bool) {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return 0, false
	}
	return intWidth(sl.Elem())
}

// addrAnnotationFix appends `// addr: <domain>` to the field declaration,
// riding an existing trailing comment when there is one — the same
// converging shape as lockdiscipline's `// guarded by` fix.
func addrAnnotationFix(fld *ast.Field, d domain) SuggestedFix {
	ann := "addr: " + d.String()
	if fld.Comment != nil && len(fld.Comment.List) > 0 {
		last := fld.Comment.List[len(fld.Comment.List)-1]
		return SuggestedFix{
			Message: "record the inferred address domain on the field declaration",
			Edits:   []TextEdit{{Pos: last.End(), End: last.End(), NewText: "; " + ann}},
		}
	}
	return SuggestedFix{
		Message: "record the inferred address domain on the field declaration",
		Edits:   []TextEdit{{Pos: fld.End(), End: fld.End(), NewText: " // " + ann}},
	}
}

// sortedFuncs renders a deterministic function list for messages.
func sortedFuncs(fns map[*types.Func]bool) []string {
	out := make([]string, 0, len(fns))
	for fn := range fns { // key extraction: sorted below
		out = append(out, fn.FullName())
	}
	sort.Strings(out)
	return out
}
