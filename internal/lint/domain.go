package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// This file is the domain layer of the value-flow engine: a small powerset
// lattice over the *semantic* domains a bare integer can live in. The bit
// bound of graph.go answers "how many bits survive"; the domain lattice
// answers "which address space (or time unit) is this number in". Rubix's
// correctness argument is exactly a domain discipline — a logical line
// address must pass through a Mapper before it may index anything row-keyed,
// and a physical line must never be mapped twice — yet all four address
// domains (and all three time units) are plain uint64/float64 in Go, so the
// type checker cannot see a violation. The lattice makes it checkable:
//
//   - domain is a bitmask; ⊥ (0) means "not a tracked value", a single bit
//     means "known to live in that domain", and multiple bits mean "mixed" —
//     the error state the analyzers report.
//   - join is set union (parallel flow paths merge), meet is intersection.
//     Both are idempotent, commutative, and associative; TestDomainLattice
//     pins the laws.
//   - conversions between domains are *pinned nodes*: the declared
//     parameters and results of the converter surfaces (Mapper.Map is
//     line→phys, kcipher.Encrypt is line→cipher, geom.GlobalRow is
//     phys→row, ...) plus any declaration carrying an `// addr:` or
//     `// unit:` annotation. A pinned node emits exactly its declared
//     domain and is opaque to every other domain — propagation stops there,
//     which is what makes a conversion an *edge* of the domain graph rather
//     than a leak.
//
// Two domain families share the machinery: the address family
// (line/phys/row/cipher) checked by the addrspace analyzer, and the unit
// family (ns/cycle/refresh) checked by unitflow. The families never mix with
// each other — an address is not a time — so each analyzer queries only its
// own family's taint maps.
type domain uint16

const (
	domLine    domain = 1 << iota // logical (pre-map) line address
	domPhys                       // physical (randomized) line index
	domRow                        // DRAM global-row coordinate
	domCipher                     // K-Cipher ciphertext
	domNs                         // wall-clock nanoseconds (float64 sim time)
	domCycle                      // DRAM/CPU clock cycles
	domRefresh                    // refresh-window counts (epochs)
)

// addrFamily and unitFamily partition the tracked domains.
const (
	addrFamily = domLine | domPhys | domRow | domCipher
	unitFamily = domNs | domCycle | domRefresh
)

// domainNames maps each single-bit domain to its annotation spelling.
var domainNames = map[domain]string{
	domLine: "line", domPhys: "phys", domRow: "row", domCipher: "cipher",
	domNs: "ns", domCycle: "cycle", domRefresh: "refresh",
}

// domainOrder fixes the rendering order of mixed masks.
var domainOrder = []domain{domLine, domPhys, domRow, domCipher, domNs, domCycle, domRefresh}

// parseDomain resolves an annotation spelling to its domain bit.
func parseDomain(name string) (domain, bool) {
	for d, n := range domainNames { // tiny fixed map; order-free lookup
		if n == name {
			return d, true
		}
	}
	return 0, false
}

// String renders a mask: "line", "line|phys" for mixed, "⊥" for empty.
func (d domain) String() string {
	if d == 0 {
		return "⊥"
	}
	var parts []string
	for _, b := range domainOrder {
		if d&b != 0 {
			parts = append(parts, domainNames[b])
		}
	}
	return strings.Join(parts, "|")
}

// join is the lattice join (set union of possible domains).
func (d domain) join(o domain) domain { return d | o }

// meet is the lattice meet (set intersection).
func (d domain) meet(o domain) domain { return d & o }

// single reports whether the mask names exactly one domain.
func (d domain) single() bool { return d != 0 && d&(d-1) == 0 }

// family returns the mask restricted to the address or unit family.
func (d domain) family(f domain) domain { return d & f }

// --- annotation grammar ------------------------------------------------------

// Annotation grammar (DESIGN §13):
//
//	// addr: line|phys|row|cipher          on a struct field or var decl
//	// unit: ns|cycle|refresh              on a struct field or var decl
//	// addr: <domain> <param>[ <param>...] in a function's doc comment
//	// unit: <domain> <param>[ <param>...] in a function's doc comment
//	// hot                                 in a function's doc comment
//	// cold                                in a function's doc comment
//
// A declaration annotation pins the object: it seeds its domain there and
// makes the node opaque to every other domain. A `// hot` function is an
// allocation-gated root for the hotalloc analyzer; `// cold` stops hot
// reachability (an explicitly-amortized or debug-only callee).
var (
	addrAnnRE = regexp.MustCompile(`\baddr:\s*([a-z]+)((?:\s+[A-Za-z_][A-Za-z0-9_]*)*)`)
	unitAnnRE = regexp.MustCompile(`\bunit:\s*([a-z]+)((?:\s+[A-Za-z_][A-Za-z0-9_]*)*)`)
	hotAnnRE  = regexp.MustCompile(`(?m)^\s*hot\b`)
	coldAnnRE = regexp.MustCompile(`(?m)^\s*cold\b`)
)

// domainFacts is the module-wide domain database, built once per Program on
// first use by addrspace/unitflow/hotalloc (the same memoization pattern as
// concFacts).
type domainFacts struct {
	// pins maps a node to the single domain it is declared to carry. Pinned
	// nodes are barriers: they emit their domain and absorb nothing.
	pins map[node]domain
	// pinPos locates each pin for diagnostics.
	pinPos map[node]token.Position
	// annotated records objects pinned by an explicit annotation (as opposed
	// to the signature pin table), so the inference pass skips them.
	annotated map[types.Object]bool
	// converters are functions whose parameter and result domains differ —
	// their bodies ARE the conversion, so domain sink checks are skipped
	// inside them.
	converters map[*types.Func]bool
	// outParams records, per pinned function, the parameter indexes that are
	// out-slices with a declared domain (MapBatch's phys, EncryptBatch's
	// dst): a call seeds the caller-side container with that domain.
	outParams map[*types.Func]map[int]domain
	// hot and cold are the function-level hotalloc annotations.
	hot  map[*types.Func]token.Position
	cold map[*types.Func]bool
	// coldPkgs are packages whose doc comment carries `// cold`: hot
	// reachability never enters them (opt-in debug machinery like the
	// paranoid-mode checker).
	coldPkgs map[string]bool

	// taints caches one barrier-aware propagation per single domain.
	taints map[domain]TaintMap
	// barriers is the set of all pinned nodes (opaque to foreign domains).
	barriers map[node]bool
	// hotReached memoizes hot-function reachability (see hotalloc.go).
	hotReached map[*types.Func]hotReach
}

// domains returns the memoized domain database for the program.
func (p *Program) domains() *domainFacts {
	if p.dom != nil {
		return p.dom
	}
	f := &domainFacts{
		pins:       make(map[node]domain),
		pinPos:     make(map[node]token.Position),
		annotated:  make(map[types.Object]bool),
		converters: make(map[*types.Func]bool),
		outParams:  make(map[*types.Func]map[int]domain),
		hot:        make(map[*types.Func]token.Position),
		cold:       make(map[*types.Func]bool),
		coldPkgs:   make(map[string]bool),
		taints:     make(map[domain]TaintMap),
		barriers:   make(map[node]bool),
	}
	p.dom = f
	for _, pkg := range p.pkgs {
		f.collectSignaturePins(p, pkg)
	}
	// Annotations are collected after the signature table so explicit
	// declarations join (and can tighten) the by-name pins; the unit seeds
	// run last and skip anything already pinned or annotated.
	for _, pkg := range p.pkgs {
		f.collectAnnotations(p, pkg)
	}
	for _, pkg := range p.pkgs {
		f.collectUnitPins(p, pkg)
	}
	for n := range f.pins { // barrier set: order-free
		f.barriers[n] = true
	}
	f.collectScrubBarriers(p)
	return f
}

// scrubPkgs are packages whose function results scrub domain taint: a hash
// or PRNG output is uniform bits, not an address in any domain, even though
// an address may have been mixed into it. Without this, kcipher's Feistel
// rounds passing through rng.Mix64 would leak line/cipher taint to every
// other Mix64 caller (trackers, Bloom filters, samplers) via the
// context-insensitive result node.
var scrubPkgs = map[string]bool{"rng": true}

// collectScrubBarriers marks every result node of every function in a scrub
// package as a barrier. The nodes carry no pin, so no domain seeds there —
// taint of every family simply dies at the result.
func (f *domainFacts) collectScrubBarriers(p *Program) {
	for fn := range p.fns { // barrier set insertion: order-free
		pkg := fn.Pkg()
		if pkg == nil || !scrubPkgs[pkgBase(pkg.Path())] {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i := 0; i < sig.Results().Len(); i++ {
			f.barriers[resultNode(fn, i)] = true
		}
	}
}

// pinNode records a pinned declaration, joining with any existing pin (a
// node pinned to two different domains is itself a finding surfaced by the
// analyzers via mixedPin checks).
func (f *domainFacts) pinNode(n node, d domain, pos token.Position) {
	if n == (node{}) || d == 0 {
		return
	}
	f.pins[n] = f.pins[n].join(d)
	if _, ok := f.pinPos[n]; !ok {
		f.pinPos[n] = pos
	}
}

// --- signature pin table -----------------------------------------------------

// funcDomains describes the declared domain contract of one translation
// surface by name: parameter domains (by index) and result domains (by
// index). outIdx marks out-slice parameters (filled by the callee).
type funcDomains struct {
	params  map[int]domain
	results map[int]domain
	out     map[int]domain
}

// addrFuncPins is the signature pin table keyed by function/method name.
// Matching is by name within the address-domain packages (addrDomainPkgs),
// so the same table covers the real module and the flat golden-testdata
// layout.
var addrFuncPins = map[string]funcDomains{
	"Map":          {params: map[int]domain{0: domLine}, results: map[int]domain{0: domPhys}},
	"Unmap":        {params: map[int]domain{0: domPhys}, results: map[int]domain{0: domLine}},
	"MapBatch":     {params: map[int]domain{0: domLine}, out: map[int]domain{1: domPhys}},
	"UnmapBatch":   {params: map[int]domain{0: domPhys}, out: map[int]domain{1: domLine}},
	"Encrypt":      {params: map[int]domain{0: domLine}, results: map[int]domain{0: domCipher}},
	"Decrypt":      {params: map[int]domain{0: domCipher}, results: map[int]domain{0: domLine}},
	"EncryptBatch": {params: map[int]domain{1: domLine}, out: map[int]domain{0: domCipher}},
	"DecryptBatch": {params: map[int]domain{1: domCipher}, out: map[int]domain{0: domLine}},
	// geom's physical-address codec: decoders take phys lines, GlobalRow
	// produces the row coordinate, Encode produces a phys line.
	"GlobalRow": {params: map[int]domain{0: domPhys}, results: map[int]domain{0: domRow}},
	"Decode":    {params: map[int]domain{0: domPhys}},
	"Slot":      {params: map[int]domain{0: domPhys}},
	"Encode":    {results: map[int]domain{0: domPhys}},
}

// addrDomainPkgs are the packages whose declarations participate in the
// signature pin table: the translation surfaces and the row-keyed state.
var addrDomainPkgs = map[string]bool{
	"mapping": true, "core": true, "kcipher": true, "geom": true,
	"dram": true, "tracker": true, "memctrl": true, "mitigation": true,
	"check": true, "sim": true, "cpu": true,
}

// isAddrDomainPkg reports whether path participates in domain pinning.
func isAddrDomainPkg(path string) bool { return addrDomainPkgs[pkgBase(path)] }

// paramDomainNames pins integer parameters by exact (lowercased) name in the
// address-domain packages: the row-keyed census/tracker surfaces and the
// line/phys plumbing name their coordinates consistently.
var paramDomainNames = map[string]domain{
	"line": domLine, "lineaddr": domLine, "lines": domLine,
	"phys": domPhys, "physline": domPhys, "physaddr": domPhys,
	"row": domRow, "globalrow": domRow,
}

// collectSignaturePins walks one package's function declarations (and
// interface method declarations) and applies the pin table.
func (f *domainFacts) collectSignaturePins(p *Program, pkg *Package) {
	if !isAddrDomainPkg(pkg.Path) {
		return
	}
	pinFunc := func(fn *types.Func) {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		fd, byName := addrFuncPins[fn.Name()]
		params, results := sig.Params(), sig.Results()
		pinnedParam, pinnedResult := domain(0), domain(0)
		for i := 0; i < params.Len(); i++ {
			pv := params.At(i)
			d := domain(0)
			if byName {
				d = fd.params[i] | fd.out[i]
			}
			if d == 0 {
				if nd, ok := paramDomainNames[strings.ToLower(pv.Name())]; ok && isAddrCarrier(pv.Type()) {
					d = nd
				}
			}
			if d != 0 && isAddrCarrier(pv.Type()) {
				f.pinNode(objNode(pv), d, pkg.Fset.Position(pv.Pos()))
				pinnedParam |= d
			}
		}
		if byName {
			for i, d := range fd.out {
				if i < params.Len() && isAddrCarrier(params.At(i).Type()) {
					if f.outParams[fn] == nil {
						f.outParams[fn] = make(map[int]domain)
					}
					f.outParams[fn][i] = d
				}
			}
			for i, d := range fd.results {
				if i < results.Len() && isAddrCarrier(results.At(i).Type()) {
					f.pinNode(resultNode(fn, i), d, pkg.Fset.Position(fn.Pos()))
					pinnedResult |= d
				}
			}
			for _, d := range fd.out {
				pinnedResult |= d
			}
		}
		// A function that declares different domains on its inputs and
		// outputs is a converter; its body is the conversion and is exempt
		// from domain sink checks.
		if pinnedParam != 0 && pinnedResult != 0 && pinnedParam != pinnedResult {
			f.converters[fn] = true
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
					pinFunc(fn)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok || it.Methods == nil {
						continue
					}
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							if fn, ok := pkg.Info.Defs[name].(*types.Func); ok {
								pinFunc(fn)
							}
						}
					}
				}
			}
		}
	}
}

// isAddrCarrier reports whether t can carry an address: a ≥32-bit integer or
// a slice of them (batches).
func isAddrCarrier(t types.Type) bool {
	if w, ok := intWidth(t); ok {
		return w >= 32
	}
	if w, ok := sliceElemIntWidth(t); ok {
		return w >= 32
	}
	return false
}

// isUnitCarrier reports whether t can carry a time quantity: any integer,
// float, or slice thereof.
func isUnitCarrier(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsInteger|types.IsFloat) != 0
	case *types.Slice:
		return isUnitCarrier(u.Elem())
	}
	return false
}

// --- unit seeding ------------------------------------------------------------

// unitSuffixes and unitExactNames seed the time-unit family by declaration
// name: float64 simulation timestamps and durations are ns, cycle counters
// say so, and refresh-window counters follow the census vocabulary. dram's
// Timing struct fields and time.Duration-typed declarations are ns
// regardless of name (a Duration's native unit is the nanosecond).
var (
	unitExactNames = map[string]domain{
		"now": domNs, "arrival": domNs, "earliest": domNs, "deadline": domNs,
		"completion": domNs,
		"cycles":     domCycle,
		"epoch":      domRefresh, "epochs": domRefresh, "windows": domRefresh,
	}
	unitSuffixes = []struct {
		suffix string
		d      domain
	}{
		{"ns", domNs},
		{"cycles", domCycle},
		{"cycle", domCycle},
	}
)

// unitForName resolves a declaration name to its seeded unit, if any.
func unitForName(name string) (domain, bool) {
	l := strings.ToLower(name)
	if d, ok := unitExactNames[l]; ok {
		return d, true
	}
	for _, s := range unitSuffixes {
		if strings.HasSuffix(l, s.suffix) && len(l) > len(s.suffix) {
			return s.d, true
		}
	}
	return 0, false
}

// isDurationType reports whether t is time.Duration (possibly named).
func isDurationType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Duration" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

// unitPkgs are the packages whose timing declarations seed the unit family.
var unitPkgs = map[string]bool{
	"dram": true, "memctrl": true, "cpu": true, "sim": true, "metrics": true,
	"mitigation": true, "tracker": true, "check": true, "core": true,
}

// isUnitPkg reports whether path holds timed simulation state.
func isUnitPkg(path string) bool { return unitPkgs[pkgBase(path)] }

// collectUnitPins seeds the unit family over one package: Timing struct
// fields, name-matched declarations, and time.Duration-typed declarations.
// Called lazily from unitflow's seed (kept separate from the address pins so
// the two families stay independently testable).
func (f *domainFacts) collectUnitPins(p *Program, pkg *Package) {
	if !isUnitPkg(pkg.Path) {
		return
	}
	// The dram/memctrl Timing structs are the unit ground truth: every float
	// field is a nanosecond quantity (DESIGN §13), whatever its mnemonic
	// name (TRCD, RowLease, ...).
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Timing" {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					obj, ok := pkg.Info.Defs[name].(*types.Var)
					if !ok || f.annotated[obj] {
						continue
					}
					if bt, ok := obj.Type().Underlying().(*types.Basic); !ok || bt.Info()&types.IsFloat == 0 {
						continue
					}
					f.pinNode(node{obj: obj}, domNs, pkg.Fset.Position(obj.Pos()))
					f.barriers[node{obj: obj}] = true
				}
			}
			return true
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := pkg.Info.Defs[id].(*types.Var)
			if !ok || f.annotated[obj] {
				return true
			}
			nd := node{obj: obj}
			if _, pinned := f.pins[nd]; pinned {
				return true
			}
			if isDurationType(obj.Type()) {
				f.pinNode(nd, domNs, pkg.Fset.Position(obj.Pos()))
				f.barriers[nd] = true
				return true
			}
			if !isUnitCarrier(obj.Type()) {
				return true
			}
			if d, ok := unitForName(obj.Name()); ok {
				f.pinNode(nd, d, pkg.Fset.Position(obj.Pos()))
				f.barriers[nd] = true
			}
			return true
		})
	}
}

// --- annotations -------------------------------------------------------------

// collectAnnotations walks declarations for `// addr:`, `// unit:`,
// `// hot`, and `// cold` directives.
func (f *domainFacts) collectAnnotations(p *Program, pkg *Package) {
	// Declaration-form annotations ignore trailing prose: `// addr: row (the
	// open row)` pins row. The <param> list form is only meaningful on a
	// function doc (collectFuncAnnotations).
	pinObjFromComment := func(obj types.Object, txt string, pos token.Position) {
		for _, m := range addrAnnRE.FindAllStringSubmatch(txt, -1) {
			if d, ok := parseDomain(m[1]); ok && d&addrFamily != 0 {
				f.pinNode(objNode(obj), d, pos)
				f.barriers[objNode(obj)] = true
				f.annotated[obj] = true
			}
		}
		for _, m := range unitAnnRE.FindAllStringSubmatch(txt, -1) {
			if d, ok := parseDomain(m[1]); ok && d&unitFamily != 0 {
				f.pinNode(objNode(obj), d, pos)
				f.barriers[objNode(obj)] = true
				f.annotated[obj] = true
			}
		}
	}
	for _, file := range pkg.Files {
		// `// cold` in the package doc marks the whole package cold for hot
		// reachability: every function in it is off the measured path.
		if file.Doc != nil && coldAnnRE.MatchString(file.Doc.Text()) {
			f.coldPkgs[pkgBase(pkg.Path)] = true
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				if n.Fields == nil {
					return true
				}
				for _, fld := range n.Fields.List {
					txt := commentText(fld)
					if txt == "" {
						continue
					}
					for _, name := range fld.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							pinObjFromComment(obj, txt, pkg.Fset.Position(name.Pos()))
						}
					}
				}
			case *ast.GenDecl:
				// Package-level or local var decls: // addr: / // unit: on
				// the spec's doc or line comment.
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					txt := ""
					if n.Doc != nil {
						txt += n.Doc.Text() + " "
					}
					if vs.Doc != nil {
						txt += vs.Doc.Text() + " "
					}
					if vs.Comment != nil {
						txt += vs.Comment.Text()
					}
					if txt == "" {
						continue
					}
					for _, name := range vs.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							pinObjFromComment(obj, txt, pkg.Fset.Position(name.Pos()))
						}
					}
				}
			case *ast.FuncDecl:
				f.collectFuncAnnotations(p, pkg, n)
				return true
			}
			return true
		})
	}
}

// collectFuncAnnotations handles the function-doc grammar: `// hot`,
// `// cold`, and `// addr|unit: <domain> <param>...` lines naming specific
// parameters (or `return` for the first result).
func (f *domainFacts) collectFuncAnnotations(p *Program, pkg *Package, fd *ast.FuncDecl) {
	if fd.Doc == nil {
		return
	}
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	txt := fd.Doc.Text()
	if hotAnnRE.MatchString(txt) {
		f.hot[fn] = pkg.Fset.Position(fd.Name.Pos())
	}
	if coldAnnRE.MatchString(txt) {
		f.cold[fn] = true
	}
	apply := func(matches [][]string, family domain) {
		for _, m := range matches {
			d, ok := parseDomain(m[1])
			if !ok || d&family == 0 {
				continue
			}
			names := strings.Fields(m[2])
			if len(names) == 0 {
				continue // declaration-form annotation; not valid on a func
			}
			sig := fn.Type().(*types.Signature)
			for _, want := range names {
				if want == "return" {
					if sig.Results().Len() > 0 {
						f.pinNode(resultNode(fn, 0), d, pkg.Fset.Position(fd.Name.Pos()))
						f.barriers[resultNode(fn, 0)] = true
					}
					continue
				}
				params := sig.Params()
				for i := 0; i < params.Len(); i++ {
					if pv := params.At(i); pv.Name() == want {
						f.pinNode(objNode(pv), d, pkg.Fset.Position(pv.Pos()))
						f.barriers[objNode(pv)] = true
						f.annotated[pv] = true
					}
				}
			}
		}
	}
	apply(addrAnnRE.FindAllStringSubmatch(txt, -1), addrFamily)
	apply(unitAnnRE.FindAllStringSubmatch(txt, -1), unitFamily)
}

// --- barrier-aware propagation ----------------------------------------------

// TaintStop is Taint with opacity: propagation never enters a node in stop
// (seeds themselves excepted). Pinned declarations use it to make domain
// conversions flow-terminating — a phys value reaching Unmap's result node
// must NOT emerge as a phys-tainted "line".
func (p *Program) TaintStop(key string, seed func() []Source, stop map[node]bool) TaintMap {
	if tm, ok := p.taintCache[key]; ok {
		return tm
	}
	sources := seed()
	sort.Slice(sources, func(i, j int) bool {
		a, b := sources[i].pos, sources[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	tm := make(TaintMap)
	var work []node
	for _, s := range sources {
		st, ok := tm[s.n]
		if !ok || s.bound > st.bound {
			if !ok {
				st = taintState{bound: s.bound, pos: s.pos, what: s.what}
			} else {
				st.bound = s.bound
			}
			tm[s.n] = st
			work = append(work, s.n)
		}
	}
	seeded := make(map[node]bool, len(tm))
	for n := range tm { // order-free: membership set
		seeded[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		st := tm[n]
		for _, e := range p.edges[n] {
			if stop[e.to] && !seeded[e.to] {
				continue // opaque barrier: the domain dies at the pin
			}
			nb := e.tf.apply(st.bound)
			cur, ok := tm[e.to]
			if ok && cur.bound >= nb {
				continue
			}
			if !ok {
				cur = taintState{bound: nb, pos: st.pos, what: st.what}
			} else {
				cur.bound = nb
			}
			tm[e.to] = cur
			work = append(work, e.to)
		}
	}
	p.taintCache[key] = tm
	return tm
}

// domainTaint runs (once, memoized) the barrier-aware propagation for one
// single-bit domain, seeding every pin of that domain plus the caller-side
// out-slice containers of the batch surfaces.
func (p *Program) domainTaint(d domain) TaintMap {
	f := p.domains()
	if tm, ok := f.taints[d]; ok {
		return tm
	}
	key := "domain:" + domainNames[d]
	tm := p.TaintStop(key, func() []Source {
		var srcs []Source
		for n, pd := range f.pins {
			if pd&d == 0 {
				continue
			}
			what := "pinned declaration"
			switch {
			case n.obj != nil:
				what = fmt.Sprintf("%s value %q", d, n.obj.Name())
			case n.fn != nil:
				what = fmt.Sprintf("%s result of %s", d, n.fn.Name())
			}
			srcs = append(srcs, Source{n: n, bound: 64, pos: f.pinPos[n], what: what})
		}
		// Out-slice arguments: a call MapBatch(lines, phys) fills the
		// caller's phys container with phys-domain values.
		for _, pkg := range p.pkgs {
			ev := &evaluator{prog: p, pkg: pkg}
			for _, file := range pkg.Files {
				ast.Inspect(file, func(nd ast.Node) bool {
					call, ok := nd.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := ev.staticCallee(call)
					if fn == nil {
						return true
					}
					outs := f.outParams[fn]
					if outs == nil {
						return true
					}
					for i, od := range outs {
						if od&d == 0 || i >= len(call.Args) {
							continue
						}
						target := ev.lvalueNode(call.Args[i])
						if target == (node{}) || f.barriers[target] {
							continue
						}
						srcs = append(srcs, Source{
							n: target, bound: 64,
							pos:  pkg.Fset.Position(call.Args[i].Pos()),
							what: fmt.Sprintf("%s batch filled by %s", d, fn.Name()),
						})
					}
					return true
				})
			}
		}
		return srcs
	}, f.barriers)
	f.taints[d] = tm
	return tm
}

// domainsOf queries which domains of a family the expression may carry, with
// one representative hit per domain bit.
func (p *Program) domainsOf(pkg *Package, e ast.Expr, family domain) (domain, map[domain]Hit) {
	f := p.domains()
	// A call to a function with a pinned first result carries exactly the
	// declared result domain: the contract overrides flow-level modeling.
	// This matters for interface methods without loaded bodies (Mapper.Map),
	// where the conservative passthrough would otherwise leak the argument's
	// domain around the pin.
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		ev := &evaluator{prog: p, pkg: pkg}
		if fn := ev.staticCallee(call); fn != nil {
			if d, ok := f.pins[resultNode(fn, 0)]; ok && d.family(family) != 0 {
				d = d.family(family)
				return d, map[domain]Hit{d: {
					Bound: 64,
					Pos:   f.pinPos[resultNode(fn, 0)],
					What:  fmt.Sprintf("%s result of %s", d, fn.Name()),
				}}
			}
		}
	}
	flows := p.Origins(pkg, e)
	if len(flows) == 0 {
		return 0, nil
	}
	var mask domain
	hits := make(map[domain]Hit)
	for _, d := range domainOrder {
		if d&family == 0 {
			continue
		}
		if hit, ok := p.domainTaint(d).Query(flows); ok {
			mask |= d
			hits[d] = hit
		}
	}
	return mask, hits
}

// insideConverter reports whether pos lies within the body of a converter
// function: the body IS the conversion, so cross-domain sightings there are
// the mechanism, not a bug.
func (f *domainFacts) insideConverter(p *Program, pkg *Package, pos token.Pos) bool {
	ev := &evaluator{prog: p, pkg: pkg}
	fn := ev.enclosingFunc(pos)
	return fn != nil && f.converters[fn]
}
