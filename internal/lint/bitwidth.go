package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Bitwidth enforces address-arithmetic discipline: a silently truncated
// line or row address fabricates or hides hot rows, the very quantity the
// evaluation measures. It flags
//
//   - shifts by a constant amount at or past the operand's bit width
//     (legal Go, but the result is always 0 — a classic width bug);
//   - constant masks with bits above the line-address domain
//     (kcipher.MaxBits = 40 bits; wider masks indicate width confusion);
//   - narrowing integer conversions (e.g. uint64→uint32) whose operand is
//     not provably in range via a constant, a mask, a right shift, or a
//     preceding comparison guard on the same expression.
var Bitwidth = &Analyzer{
	Name: "bitwidth",
	Doc:  "flag over-wide shifts, over-wide address masks, and unguarded narrowing conversions",
	Run:  runBitwidth,
}

// maxAddressBits is the widest supported physical line address
// (kcipher.MaxBits); constant masks with bits at or above it are flagged.
const maxAddressBits = 40

func runBitwidth(pass *Pass) error {
	for _, f := range pass.Files {
		guards := collectComparisonGuards(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.SHL, token.SHR:
					checkShift(pass, n.X, n.Y, n.Pos())
				case token.AND, token.AND_NOT:
					checkMask(pass, n)
				}
			case *ast.AssignStmt:
				if n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN {
					checkShift(pass, n.Lhs[0], n.Rhs[0], n.Pos())
				}
			case *ast.CallExpr:
				checkNarrowing(pass, n, guards)
			}
			return true
		})
	}
	return nil
}

// intWidth returns the bit width of an integer type (int/uint/uintptr count
// as 64: the simulator targets 64-bit hosts, and assuming less would flag
// every int conversion). The second result is false for non-integers.
func intWidth(t types.Type) (int, bool) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return 0, false
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8, true
	case types.Int16, types.Uint16:
		return 16, true
	case types.Int32, types.Uint32:
		return 32, true
	default: // Int64, Uint64, Int, Uint, Uintptr, UntypedInt
		return 64, true
	}
}

func isSigned(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned == 0
}

// constUint returns e's constant value as a uint64 if it has one.
func constUint(pass *Pass, e ast.Expr) (uint64, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	u, exact := constant.Uint64Val(v)
	return u, exact
}

func checkShift(pass *Pass, x, y ast.Expr, pos token.Pos) {
	w, ok := intWidth(pass.TypeOf(x))
	if !ok {
		return
	}
	// A constant left operand adopts the shift's contextual type; flagging
	// it against an assumed 64-bit width would be wrong, so skip constants.
	if tv, ok := pass.Info.Types[x]; ok && tv.Value != nil {
		return
	}
	amt, ok := constUint(pass, y)
	if ok && amt >= uint64(w) {
		pass.Reportf(pos, "shift by %d on a %d-bit operand always yields 0", amt, w)
	}
}

func checkMask(pass *Pass, n *ast.BinaryExpr) {
	// Identify the constant side; both-constant expressions fold at compile
	// time and are not address masks.
	mask, ok := constUint(pass, n.Y)
	operand := n.X
	if !ok {
		mask, ok = constUint(pass, n.X)
		operand = n.Y
	}
	if !ok {
		return
	}
	if tv, okc := pass.Info.Types[operand]; okc && tv.Value != nil {
		return
	}
	if _, okw := intWidth(pass.TypeOf(operand)); !okw {
		return
	}
	if mask != ^uint64(0) && mask>>maxAddressBits != 0 {
		pass.Reportf(n.Pos(), "mask %#x has bits above the %d-bit line-address domain", mask, maxAddressBits)
	}
}

// checkNarrowing flags T(expr) when T is a narrower integer type than expr's
// and the operand is not provably in range.
func checkNarrowing(pass *Pass, call *ast.CallExpr, guards []guard) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dstW, ok := intWidth(tv.Type)
	if !ok {
		return
	}
	arg := call.Args[0]
	srcT := pass.TypeOf(arg)
	srcW, ok := intWidth(srcT)
	if !ok || dstW >= srcW {
		return
	}
	// Effective width of the destination's value range: a signed target
	// loses one bit to the sign.
	effDst := dstW
	if isSigned(tv.Type) {
		effDst--
	}
	if u, isConst := constUint(pass, arg); isConst {
		if effDst >= 64 || u>>effDst == 0 {
			return
		}
	}
	if maxBits(pass, arg) <= effDst {
		return
	}
	if guardedBefore(pass, guards, arg, call.Pos()) {
		return
	}
	var fixes []SuggestedFix
	if !isSigned(tv.Type) {
		fixes = maskFix(arg, dstW)
	}
	pass.Report(call.Pos(), fmt.Sprintf("narrowing conversion from %d-bit %s to %d-bit %s may truncate an address; mask, range-check, or annotate with //lint:allow bitwidth <why>",
		srcW, srcT, dstW, tv.Type), fixes...)
}

// maskFix builds the suggested fix that masks the conversion operand to the
// destination's bits, making the truncation explicit and the finding
// disappear on the next run. It is offered only for unsigned destinations,
// where the mask leaves the converted value unchanged; a signed target would
// need a mask one bit narrower, which changes the value when the sign bit
// is set.
func maskFix(arg ast.Expr, bits int) []SuggestedFix {
	text := fmt.Sprintf(" & %#x", uint64(1)<<bits-1)
	edits := []TextEdit{{Pos: arg.End(), End: arg.End(), NewText: text}}
	if _, isBinary := arg.(*ast.BinaryExpr); isBinary {
		// a+b & mask would bind wrong; parenthesize the operand.
		edits = []TextEdit{
			{Pos: arg.Pos(), End: arg.Pos(), NewText: "("},
			{Pos: arg.End(), End: arg.End(), NewText: ")" + text},
		}
	}
	return []SuggestedFix{{Message: fmt.Sprintf("mask the operand to %d bits", bits), Edits: edits}}
}

// maxBits conservatively bounds the number of significant bits of e: masks
// and right shifts narrow the bound, everything else falls back to the
// operand's type width.
func maxBits(pass *Pass, e ast.Expr) int {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return maxBits(pass, x.X)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.AND:
			b := 64
			if m, ok := constUint(pass, x.Y); ok {
				b = bitsOf(m)
			} else if m, ok := constUint(pass, x.X); ok {
				b = bitsOf(m)
			}
			return min(b, maxBitsOperands(pass, x))
		case token.SHR:
			if amt, ok := constUint(pass, x.Y); ok {
				b := maxBits(pass, x.X) - int(min(amt, 64))
				return max(b, 0)
			}
		case token.REM:
			if m, ok := constUint(pass, x.Y); ok && m > 0 {
				return bitsOf(m - 1)
			}
		}
	}
	if u, ok := constUint(pass, e); ok {
		return bitsOf(u)
	}
	if w, ok := intWidth(pass.TypeOf(e)); ok {
		return w
	}
	return 64
}

func maxBitsOperands(pass *Pass, x *ast.BinaryExpr) int {
	return min(maxBits(pass, x.X), maxBits(pass, x.Y))
}

func bitsOf(u uint64) int {
	n := 0
	for u != 0 {
		u >>= 1
		n++
	}
	return n
}

// guard records one comparison in the file: any expression compared with a
// relational operator. guardedBefore accepts a conversion whose operand was
// compared earlier in the same function, the "explicit range guard" pattern:
//
//	if v > math.MaxUint32 { return err }
//	u := uint32(v)
type guard struct {
	exprText string
	pos      token.Pos
	fn       ast.Node
}

func collectComparisonGuards(pass *Pass, f *ast.File) []guard {
	var guards []guard
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch be.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				guards = append(guards,
					guard{exprText: exprText(pass, be.X), pos: be.Pos(), fn: fd},
					guard{exprText: exprText(pass, be.Y), pos: be.Pos(), fn: fd})
			}
			return true
		})
	}
	return guards
}

func guardedBefore(pass *Pass, guards []guard, arg ast.Expr, at token.Pos) bool {
	text := exprText(pass, arg)
	if text == "" {
		return false
	}
	for _, g := range guards {
		if g.pos < at && g.exprText == text && g.fn.Pos() <= at && at <= g.fn.End() {
			return true
		}
	}
	return false
}

// exprText renders small expressions (identifiers and selector chains) for
// textual guard matching; composite expressions return "" and never match.
func exprText(pass *Pass, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprText(pass, x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprText(pass, x.X)
	}
	return ""
}
