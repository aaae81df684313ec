package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// unitflow infers a unit tag for expressions — from name suffixes, from
// whole lower-case words (seconds, bytes, usd), from named types like
// units.Seconds, and from call results such as
// time.Since(t0).Seconds() — propagates the tags through local
// assignments, and checks every place a tagged value flows: additive
// and comparison operators, assignments and composite literals, return
// statements, call arguments against the callee's parameter names, and
// struct-field doc comments.
//
// A tag is a (dimension, scale) pair, e.g. (time, us). Cross-dimension
// combinations are always an error; cross-scale combinations within a
// dimension are an error only when both scales are exact, so deliberate
// conversions (us * 1e-6, which erases the scale but keeps the
// dimension) never fire. Multiplying or dividing tagged values changes
// the dimension — rate×time is data, data/rate is time, x/x is a
// dimensionless ratio — and storing such a result under the unchanged
// source suffix is the third finding family.

// utag is the inferred unit of an expression.
type utag struct {
	dim     string // "time", "data", ..., "dimensionless", or a composite like "time×time"
	scale   string // exact canonical unit within dim ("s", "us", ...), or "" when unknown
	derived bool   // produced by unit arithmetic rather than written as a literal
}

var (
	unknownTag       = utag{}
	dimensionlessTag = utag{dim: "dimensionless", scale: "1"}
)

func (t utag) known() bool         { return t.dim != "" }
func (t utag) dimensionless() bool { return t.dim == "dimensionless" }
func (t utag) composite() bool     { return strings.ContainsAny(t.dim, "×/") }

// String renders the tag the way diagnostics mention it: the exact
// scale when known, the dimension otherwise.
func (t utag) String() string {
	if t.scale != "" && !t.dimensionless() {
		return t.scale
	}
	return t.dim
}

// unitSuffixes maps the identifier suffixes this codebase uses for
// dimensioned quantities to a canonical unit. Two values conflict when
// their canonical units differ — that covers cross-dimension mistakes
// (seconds + bytes) and cross-scale mistakes within a dimension
// (seconds + microseconds), which are equally fatal to a performance
// model.
var unitSuffixes = map[string]string{
	// time
	"S": "s", "Sec": "s", "Secs": "s", "Seconds": "s",
	"MS": "ms", "Millis": "ms",
	"US": "us", "Micros": "us",
	"NS": "ns", "Nanos": "ns",
	"Hours": "h",
	// data volume
	"Bytes": "B", "Bits": "bit",
	"KB": "kB", "MB": "MB", "GB": "GB",
	"KiB": "KiB", "MiB": "MiB", "GiB": "GiB",
	// data rate
	"Bps": "B/s", "KBps": "kB/s", "MBps": "MB/s", "GBps": "GB/s",
	// velocity
	"Mps": "m/s",
	// money
	"USD": "USD", "Cents": "cents",
	// frequency
	"Hz": "Hz", "KHz": "kHz", "MHz": "MHz", "GHz": "GHz",
	// compute throughput
	"FLOPS": "FLOPS", "GFLOPS": "GFLOPS", "MFLOPS": "MFLOPS",
	"FLUPS": "FLUPS", "MFLUPS": "MFLUPS", "GFLUPS": "GFLUPS",
	// counts
	"Count": "count", "Counts": "count",
}

// suffixesByLength is unitSuffixes' keys, longest first, so MFLUPS
// matches before S.
var suffixesByLength = func() []string {
	keys := make([]string, 0, len(unitSuffixes))
	for k := range unitSuffixes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) > len(keys[j])
		}
		return keys[i] < keys[j]
	})
	return keys
}()

// unitOf extracts the canonical unit of an identifier name from its
// suffix, or "" when the name carries none. The suffix must sit on a
// camel-case boundary: ComputeS and latencyUS match, MFLUPS does not
// match S (the preceding rune is upper case, so S is part of a larger
// word), and Steps does not match anything (lower-case tail).
func unitOf(name string) string {
	for _, suf := range suffixesByLength {
		if !strings.HasSuffix(name, suf) {
			continue
		}
		rest := name[:len(name)-len(suf)]
		if rest == "" {
			return unitSuffixes[suf]
		}
		last := rest[len(rest)-1]
		if last >= 'a' && last <= 'z' || last >= '0' && last <= '9' {
			return unitSuffixes[suf]
		}
	}
	return ""
}

// unitDims maps every canonical unit the suite knows (the values of
// unitSuffixes) to its dimension.
var unitDims = map[string]string{
	"s": "time", "ms": "time", "us": "time", "ns": "time", "h": "time",
	"B": "data", "bit": "data",
	"kB": "data", "MB": "data", "GB": "data",
	"KiB": "data", "MiB": "data", "GiB": "data",
	"B/s": "rate", "kB/s": "rate", "MB/s": "rate", "GB/s": "rate",
	"USD": "money", "cents": "money",
	"Hz": "frequency", "kHz": "frequency", "MHz": "frequency", "GHz": "frequency",
	"FLOPS": "throughput", "GFLOPS": "throughput", "MFLOPS": "throughput",
	"FLUPS": "throughput", "MFLUPS": "throughput", "GFLUPS": "throughput",
	"m/s":   "velocity",
	"count": "count",
}

// flowWords tags whole lower-case identifiers that carry their unit as
// the entire name (struct fields like estimate.seconds).
var flowWords = map[string]string{
	"seconds": "s", "secs": "s",
	"bytes":  "B",
	"usd":    "USD",
	"mflups": "MFLUPS",
}

// flowUnitOf is the unit a name claims: a whole-word name, else its
// suffix, with one extra rule: a name whose stem contains "Per" is a
// ratio whose suffix names only the numerator (PricePerNodeHourUSD is
// dollars per node-hour, bytesPerMB is a pure scale factor), so its
// suffix is not trusted.
func flowUnitOf(name string) string {
	if u, ok := flowWords[name]; ok {
		return u
	}
	u := unitOf(name)
	if u == "" {
		return ""
	}
	if stem := name[:len(name)-suffixLenOf(name, u)]; strings.Contains(stem, "Per") {
		return ""
	}
	return u
}

// suffixLenOf recovers the length of the suffix that produced unit u
// for name (the longest matching suffix, mirroring unitOf).
func suffixLenOf(name, u string) int {
	for _, suf := range suffixesByLength {
		if unitSuffixes[suf] == u && strings.HasSuffix(name, suf) {
			return len(suf)
		}
	}
	return 0
}

// tagFromUnit lifts a canonical unit into a tag. Counts are excluded:
// a count multiplies into every other quantity (bytes = markers ×
// bytes-per-marker), so tagging them would flag all such products.
func tagFromUnit(u string) utag {
	if u == "" {
		return unknownTag
	}
	dim, ok := unitDims[u]
	if !ok || dim == "count" {
		return unknownTag
	}
	return utag{dim: dim, scale: u}
}

// typeTag reads a tag off a named numeric type whose name carries a
// unit suffix: units.Seconds, units.Bytes, or any equivalent local
// declaration.
func typeTag(t types.Type) utag {
	named, ok := t.(*types.Named)
	if !ok {
		return unknownTag
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsNumeric == 0 {
		return unknownTag
	}
	return tagFromUnit(flowUnitOf(named.Obj().Name()))
}

// flowEnv is the per-file inference state.
type flowEnv struct {
	f    *File
	info *types.Info
	vars map[types.Object]utag
}

func newFlowEnv(f *File) *flowEnv {
	v := &flowEnv{f: f, info: f.Package.Info, vars: map[types.Object]utag{}}
	v.propagate()
	return v
}

// propagate runs a small fixpoint over the file's assignments so an
// unsuffixed local initialized from a tagged value carries that tag
// (wait := r.LatencyUS). A local assigned conflicting dimensions is
// poisoned and stays untagged; conflicting scales keep the dimension.
func (v *flowEnv) propagate() {
	poisoned := map[types.Object]bool{}
	for pass := 0; pass < 4; pass++ {
		changed := false
		ast.Inspect(v.f.AST, func(n ast.Node) bool {
			var lhs, rhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
					return true
				}
				lhs, rhs = n.Lhs, n.Rhs
			case *ast.ValueSpec:
				for _, name := range n.Names {
					lhs = append(lhs, name)
				}
				rhs = n.Values
			default:
				return true
			}
			if len(lhs) != len(rhs) {
				return true
			}
			for i := range lhs {
				id, ok := lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" || flowUnitOf(id.Name) != "" {
					continue
				}
				obj := v.info.ObjectOf(id)
				if obj == nil || poisoned[obj] {
					continue
				}
				t := v.tagOf(rhs[i])
				if !t.known() || t.dimensionless() || t.composite() {
					continue
				}
				old, seen := v.vars[obj]
				switch {
				case !seen:
					v.vars[obj] = t
					changed = true
				case old.dim != t.dim:
					poisoned[obj] = true
					delete(v.vars, obj)
					changed = true
				case old != t:
					merged := utag{dim: old.dim}
					if old != merged {
						v.vars[obj] = merged
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
}

// tagOf infers the unit of an expression.
func (v *flowEnv) tagOf(e ast.Expr) utag {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return v.tagOf(e.X)
	case *ast.BasicLit:
		if e.Kind == token.INT || e.Kind == token.FLOAT {
			return dimensionlessTag
		}
		return unknownTag
	case *ast.Ident:
		if t := tagFromUnit(flowUnitOf(e.Name)); t.known() {
			return t
		}
		if obj := v.info.ObjectOf(e); obj != nil {
			if t, ok := v.vars[obj]; ok {
				return t
			}
		}
		return v.valueTag(e)
	case *ast.SelectorExpr:
		if t := tagFromUnit(flowUnitOf(e.Sel.Name)); t.known() {
			return t
		}
		return v.valueTag(e)
	case *ast.CallExpr:
		if tv, ok := v.info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: a named unit type imposes its own tag;
			// numeric reshaping (float64(x)) keeps the operand's.
			if t := typeTag(tv.Type); t.known() {
				return t
			}
			if len(e.Args) == 1 {
				return v.tagOf(e.Args[0])
			}
			return unknownTag
		}
		if name := calleeIdentName(e.Fun); name != "" {
			if t := tagFromUnit(flowUnitOf(name)); t.known() {
				return t
			}
		}
		return v.valueTag(e)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return v.tagOf(e.X)
		}
		return unknownTag
	case *ast.BinaryExpr:
		return v.binaryTag(e)
	}
	return unknownTag
}

// valueTag is the fallback for leaf expressions: a named unit type, or
// dimensionless for constants (bare and named numeric literals).
func (v *flowEnv) valueTag(e ast.Expr) utag {
	tv, ok := v.info.Types[e]
	if !ok {
		return unknownTag
	}
	if t := typeTag(tv.Type); t.known() {
		return t
	}
	if tv.Value != nil {
		return dimensionlessTag
	}
	return unknownTag
}

// calleeIdentName returns the terminal name of a call target.
func calleeIdentName(fun ast.Expr) string {
	switch fun := fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.ParenExpr:
		return calleeIdentName(fun.X)
	}
	return ""
}

// scaleErased keeps a tag's dimension but forgets the exact scale —
// what multiplying by a plain number does (us * 1e-6 is still time,
// scale now unknown).
func scaleErased(t utag) utag {
	if !t.known() || t.dimensionless() {
		return t
	}
	return utag{dim: t.dim, derived: t.derived}
}

// invDims maps a dimension to its reciprocal where the suite knows it.
var invDims = map[string]string{
	"time":      "frequency",
	"frequency": "time",
}

// binaryTag implements the tag algebra of binary operators.
func (v *flowEnv) binaryTag(e *ast.BinaryExpr) utag {
	x, y := v.tagOf(e.X), v.tagOf(e.Y)
	switch e.Op {
	case token.ADD, token.SUB:
		if x.dimensionless() && y.dimensionless() {
			return dimensionlessTag
		}
		if x.known() && y.known() && !x.dimensionless() && !y.dimensionless() && x.dim == y.dim {
			if x.scale == y.scale {
				return x
			}
			return utag{dim: x.dim}
		}
		return unknownTag
	case token.MUL:
		if x.dimensionless() {
			return scaleErased(y)
		}
		if y.dimensionless() {
			return scaleErased(x)
		}
		if !x.known() || !y.known() {
			return unknownTag
		}
		return mulDims(x, y)
	case token.QUO:
		if y.dimensionless() {
			return scaleErased(x)
		}
		if !x.known() || !y.known() {
			return unknownTag
		}
		if x.dimensionless() {
			if inv, ok := invDims[y.dim]; ok {
				return utag{dim: inv, derived: true}
			}
			return unknownTag
		}
		return quoDims(x, y)
	}
	return unknownTag
}

// mulDims combines two tagged factors.
func mulDims(x, y utag) utag {
	a, b := x.dim, y.dim
	if a == "rate" && b == "time" || a == "time" && b == "rate" {
		return utag{dim: "data", derived: true}
	}
	if a == "frequency" && b == "time" || a == "time" && b == "frequency" {
		return utag{dim: "dimensionless", derived: true}
	}
	if a > b {
		a, b = b, a
	}
	return utag{dim: a + "×" + b, derived: true}
}

// quoDims combines a tagged dividend and divisor.
func quoDims(x, y utag) utag {
	if x.dim == y.dim {
		return utag{dim: "dimensionless", derived: true}
	}
	if x.dim == "data" && y.dim == "time" {
		t := utag{dim: "rate", derived: true}
		switch {
		case x.scale == "B" && y.scale == "s":
			t.scale = "B/s"
		case x.scale == "kB" && y.scale == "s":
			t.scale = "kB/s"
		case x.scale == "MB" && y.scale == "s":
			t.scale = "MB/s"
		case x.scale == "GB" && y.scale == "s":
			t.scale = "GB/s"
		}
		return t
	}
	if x.dim == "data" && y.dim == "rate" {
		return utag{dim: "time", derived: true}
	}
	return utag{dim: x.dim + "/" + y.dim, derived: true}
}

// reportable is the shared gate for flow findings: the value's tag must
// be known and must not be an underived plain number (bare scalars mix
// with everything).
func reportable(t utag) bool {
	return t.known() && (!t.dimensionless() || t.derived)
}

// docUnitRe and docUnitCanon spot unit vocabulary in field comments,
// for the two field findings of checkFieldDocs.
var docUnitRe = regexp.MustCompile(`(?i)(^|[\s(,])(microseconds|milliseconds|nanoseconds|seconds|megabytes|gigabytes|kilobytes|bytes|dollars|usd|mflups|gflops|flop/s|hertz|hz|[kmg]i?b/s|b/s|m/s|µs)([\s,.;:)]|$)`)

var docUnitCanon = map[string]string{
	"microseconds": "us", "milliseconds": "ms", "nanoseconds": "ns", "seconds": "s",
	"megabytes": "MB", "gigabytes": "GB", "kilobytes": "kB", "bytes": "B",
	"dollars": "USD", "usd": "USD",
	"mflups": "MFLUPS", "gflops": "GFLOPS", "flop/s": "FLOPS",
	"hertz": "Hz", "hz": "Hz",
	"mb/s": "MB/s", "gb/s": "GB/s", "kb/s": "kB/s", "b/s": "B/s",
	"m/s": "m/s", "µs": "us",
}

// comparableOps are the binary operators whose operands must share a
// unit. Multiplication and division legitimately combine units, so
// only additive and ordering/equality operators are constrained.
var comparableOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.LSS: true, token.GTR: true, token.LEQ: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true,
}

// checkUnitFlow builds the semantic unit-flow check.
func checkUnitFlow() Check {
	const id = "unitflow"
	return Check{
		ID:  id,
		Doc: "semantic unit-flow analysis: propagates s/bytes/MB-s/USD/MFLUPS tags through assignments, arithmetic, returns and calls; flags mixed-unit combinations, contradicted destinations, dimension-changing mul/div stored under an unchanged suffix, and documented units missing from exported field names",
		Run: eachFile(func(f *File) []Diagnostic {
			v := newFlowEnv(f)
			var diags []Diagnostic
			add := func(pos token.Pos, format string, args ...any) {
				diags = append(diags, f.diag(pos, id, format, args...))
			}

			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					v.checkBinary(n, add)
				case *ast.AssignStmt:
					v.checkAssign(n, add)
				case *ast.CompositeLit:
					v.checkCompositeLit(n, add)
				case *ast.CallExpr:
					v.checkCallArgs(n, add)
				case *ast.FuncDecl:
					v.checkReturns(n, add)
				case *ast.TypeSpec:
					v.checkFieldDocs(n, add)
				}
				return true
			})
			return diags
		}),
	}
}

// checkBinary flags additive and comparison operators mixing
// dimensions, or mixing exact scales within a dimension.
func (v *flowEnv) checkBinary(n *ast.BinaryExpr, add func(token.Pos, string, ...any)) {
	if !comparableOps[n.Op] {
		return
	}
	lt, rt := v.tagOf(n.X), v.tagOf(n.Y)
	if !reportable(lt) || !reportable(rt) {
		return
	}
	if lt.dim != rt.dim {
		add(n.OpPos, "%q mixes units: %s is in %s but %s is in %s",
			n.Op, exprString(n.X), lt, exprString(n.Y), rt)
		return
	}
	if lt.scale != "" && rt.scale != "" && lt.scale != rt.scale {
		add(n.OpPos, "%q mixes %s scales: %s is in %s but %s is in %s",
			n.Op, lt.dim, exprString(n.X), lt.scale, exprString(n.Y), rt.scale)
	}
}

// destUnit reads the unit a store destination claims via its suffix.
func destUnit(lhs ast.Expr) (utag, string) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		return tagFromUnit(flowUnitOf(lhs.Name)), lhs.Name
	case *ast.SelectorExpr:
		return tagFromUnit(flowUnitOf(lhs.Sel.Name)), exprString(lhs)
	case *ast.ParenExpr:
		return destUnit(lhs.X)
	}
	return unknownTag, ""
}

// checkStore is the shared assignment rule: a destination whose suffix
// claims one unit must not receive a value inferred as another.
func (v *flowEnv) checkStore(pos token.Pos, name string, dt utag, rhs ast.Expr, add func(token.Pos, string, ...any)) {
	if !dt.known() {
		return
	}
	rt := v.tagOf(rhs)
	if !reportable(rt) {
		return
	}
	switch {
	case rt.dimensionless():
		add(pos, "%s is suffixed %s but stores a dimensionless ratio: dividing equal units cancels them", name, dt)
	case rt.composite():
		add(pos, "%s is suffixed %s but stores a product of units (%s): multiplication changes the dimension", name, dt, rt.dim)
	case rt.dim != dt.dim:
		add(pos, "%s is suffixed %s but is assigned a value in %s", name, dt, rt)
	case dt.scale != "" && rt.scale != "" && rt.scale != dt.scale:
		add(pos, "%s is suffixed %s but is assigned a value in %s", name, dt, rt)
	}
}

// checkAssign applies the store rule to = and :=, and the additive
// mixing rules to += and -=.
func (v *flowEnv) checkAssign(n *ast.AssignStmt, add func(token.Pos, string, ...any)) {
	switch n.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(n.Lhs) != len(n.Rhs) {
			return
		}
		for i := range n.Lhs {
			dt, name := destUnit(n.Lhs[i])
			v.checkStore(n.Lhs[i].Pos(), name, dt, n.Rhs[i], add)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		dt, name := destUnit(n.Lhs[0])
		if !dt.known() {
			return
		}
		rt := v.tagOf(n.Rhs[0])
		if !reportable(rt) {
			return
		}
		if rt.dim != dt.dim {
			add(n.TokPos, "%q mixes units: %s is in %s but %s is in %s",
				n.Tok, name, dt, exprString(n.Rhs[0]), rt)
			return
		}
		if dt.scale != "" && rt.scale != "" && rt.scale != dt.scale {
			add(n.TokPos, "%q mixes %s scales: %s is in %s but %s is in %s",
				n.Tok, dt.dim, name, dt.scale, exprString(n.Rhs[0]), rt.scale)
		}
	}
}

// checkCompositeLit applies the store rule to keyed struct literals.
func (v *flowEnv) checkCompositeLit(n *ast.CompositeLit, add func(token.Pos, string, ...any)) {
	for _, elt := range n.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		v.checkStore(kv.Key.Pos(), key.Name, tagFromUnit(flowUnitOf(key.Name)), kv.Value, add)
	}
}

// checkCallArgs compares argument tags against the callee's parameter
// names: passing a seconds value for a parameter named priceUSD is the
// call-boundary version of a contradicted assignment.
func (v *flowEnv) checkCallArgs(n *ast.CallExpr, add func(token.Pos, string, ...any)) {
	if tv, ok := v.info.Types[n.Fun]; ok && tv.IsType() {
		return // conversion, handled by tagOf
	}
	var obj types.Object
	switch fun := n.Fun.(type) {
	case *ast.Ident:
		obj = v.info.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = v.info.ObjectOf(fun.Sel)
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range n.Args {
		if i >= params.Len() || sig.Variadic() && i >= params.Len()-1 {
			break
		}
		p := params.At(i)
		dt := tagFromUnit(flowUnitOf(p.Name()))
		if !dt.known() {
			continue
		}
		at := v.tagOf(arg)
		if !reportable(at) {
			continue
		}
		if at.dim != dt.dim {
			add(arg.Pos(), "call to %s passes %s (%s) for parameter %q, which is in %s",
				fn.Name(), exprString(arg), at, p.Name(), dt)
			continue
		}
		if dt.scale != "" && at.scale != "" && at.scale != dt.scale {
			add(arg.Pos(), "call to %s passes %s (%s) for parameter %q, which is in %s",
				fn.Name(), exprString(arg), at, p.Name(), dt)
		}
	}
}

// checkReturns compares returned values against the unit the function
// declares — via named result parameters or, for a single result, via
// the function name's own suffix (TimeUS, waitS).
func (v *flowEnv) checkReturns(fd *ast.FuncDecl, add func(token.Pos, string, ...any)) {
	if fd.Body == nil || fd.Type.Results == nil {
		return
	}
	var tags []utag
	for _, field := range fd.Type.Results.List {
		if len(field.Names) == 0 {
			tags = append(tags, unknownTag)
			continue
		}
		for _, nm := range field.Names {
			tags = append(tags, tagFromUnit(flowUnitOf(nm.Name)))
		}
	}
	if len(tags) == 1 && !tags[0].known() {
		tags[0] = tagFromUnit(flowUnitOf(fd.Name.Name))
	}
	any := false
	for _, t := range tags {
		any = any || t.known()
	}
	if !any {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns answer to its own signature
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != len(tags) {
			return true
		}
		for i, res := range ret.Results {
			dt := tags[i]
			if !dt.known() {
				continue
			}
			rt := v.tagOf(res)
			if !reportable(rt) {
				continue
			}
			if rt.dim != dt.dim || dt.scale != "" && rt.scale != "" && rt.scale != dt.scale {
				add(res.Pos(), "%s declares its result in %s but returns a value in %s",
					fd.Name.Name, dt, rt)
			}
		}
		return true
	})
}

// checkFieldDocs holds struct fields to the unit their doc comment
// names. A field whose suffix and comment claim different units is
// wrong at least once — the mistake that motivated this check: a field
// named in milliseconds and documented in m/s. An exported float field
// of an exported type whose comment names a unit must carry it as a
// suffix, where arithmetic on it can be audited, not only in prose.
func (v *flowEnv) checkFieldDocs(ts *ast.TypeSpec, add func(token.Pos, string, ...any)) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		m := docUnitRe.FindStringSubmatch(fieldCommentText(field))
		if m == nil {
			continue
		}
		word := strings.TrimSpace(m[2])
		docTag := tagFromUnit(docUnitCanon[strings.ToLower(word)])
		for _, name := range field.Names {
			if nameTag := tagFromUnit(flowUnitOf(name.Name)); nameTag.known() {
				if docTag.known() && (nameTag.dim != docTag.dim ||
					nameTag.scale != "" && docTag.scale != "" && nameTag.scale != docTag.scale) {
					add(name.Pos(), "field %s.%s is suffixed %s but its comment documents %q (%s)",
						ts.Name.Name, name.Name, nameTag, word, docTag)
				}
				continue
			}
			if unitOf(name.Name) == "" && ts.Name.IsExported() && name.IsExported() && isFloatType(field.Type) {
				add(name.Pos(), "exported field %s.%s is documented in %q but its name carries no unit suffix",
					ts.Name.Name, name.Name, word)
			}
		}
	}
}

// isFloatType reports whether a type expression is float64 or float32.
func isFloatType(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && (id.Name == "float64" || id.Name == "float32")
}

// fieldCommentText joins a struct field's doc and line comments.
func fieldCommentText(field *ast.Field) string {
	var parts []string
	if field.Doc != nil {
		parts = append(parts, field.Doc.Text())
	}
	if field.Comment != nil {
		parts = append(parts, field.Comment.Text())
	}
	return strings.Join(parts, " ")
}
