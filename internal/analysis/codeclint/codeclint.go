// Package codeclint checks encode/decode symmetry for the project's
// hand-rolled binary codecs — the invariant the wire protocol (DESIGN.md
// §14) and the snapshot format (§13) otherwise enforce only through
// goldens and fuzzing. Codec pairs are declared with a directive above
// each half:
//
//	//hbo:codec <group> encode
//	//hbo:codec <group> decode
//
// Both halves are lowered to an abstract operation stream — u8/u16/u32/u64
// writes and reads, length-prefixed byte strings, float vectors, repeated
// groups, optional flag-gated sections, and per-frame-type switches — and
// the two streams must agree step by step in order and width. Recognized
// forms: binary.LittleEndian.AppendUintN and byte appends on the encode
// side; the repo's bounds-checked reader methods (u8/u16/u32/u64/f64,
// take, bytes16, f64s, point) on the decode side; package-local helpers
// are inlined recursively so appendBytes16-style wrappers compare equal to
// their reader twins. CRC writes (an argument through crc32.ChecksumIEEE)
// are framing, verified out-of-band, and excluded, as is any line marked
// `//codec:skip`. Error guards (conditions mentioning err) are
// transparent; loops whose body reduces to float/u64 writes normalize to
// one vector op, so n×dim nested loops compare equal to a flat f64s read.
//
// Beyond order/width parity, every optional section must be tied to a flag
// bit — set if and only if the section is written (the canonicality
// invariant: one value, one encoding) — and the two halves must gate a
// section on the same flag constant.
package codeclint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"github.com/mar-hbo/hbo/internal/analysis/lintutil"
)

const name = "codeclint"

// Directive introduces a codec half: //hbo:codec <group> encode|decode.
const Directive = "hbo:codec"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "check that //hbo:codec encode/decode pairs write and read the " +
		"same fields in the same order and width, with flag bits set iff " +
		"their optional section is present",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// op is one abstract codec operation.
type op struct {
	kind  string // "u8","u16","u32","u64","bytes","vec","rep","opt","switch","crc"
	flag  string // opt: name of the gating flag constant ("" = untied)
	body  []op   // rep, opt
	cases []swCase
	pos   token.Pos
}

type swCase struct {
	key  string // comma-joined case label expressions
	body []op
}

func (o op) String() string {
	switch o.kind {
	case "rep":
		return "rep[" + opsString(o.body) + "]"
	case "opt":
		f := o.flag
		if f == "" {
			f = "?"
		}
		return "opt(" + f + ")[" + opsString(o.body) + "]"
	case "switch":
		return "switch"
	}
	return o.kind
}

func opsString(ops []op) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

type half struct {
	decl *ast.FuncDecl
	pos  token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	_ = pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	x := &extractor{
		pass:      pass,
		skipLines: map[string]map[int]bool{},
		cache:     map[*types.Func][]op{},
		inFlight:  map[*types.Func]bool{},
	}

	// Collect //codec:skip lines and the codec directives.
	type pair struct{ enc, dec *half }
	groups := map[string]*pair{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "codec:skip") {
					p := pass.Fset.Position(c.Pos())
					if x.skipLines[p.Filename] == nil {
						x.skipLines[p.Filename] = map[int]bool{}
					}
					x.skipLines[p.Filename][p.Line] = true
				}
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				group, role, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				if groups[group] == nil {
					groups[group] = &pair{}
				}
				h := &half{decl: fd, pos: c.Pos()}
				switch role {
				case "encode":
					groups[group].enc = h
				case "decode":
					groups[group].dec = h
				default:
					pass.Reportf(c.Pos(), "malformed %s directive: role %q is not encode or decode", Directive, role)
				}
			}
		}
	}

	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		p := groups[g]
		if p.enc == nil || p.dec == nil {
			h := p.enc
			missing := "decode"
			if h == nil {
				h, missing = p.dec, "encode"
			}
			lintutil.Report(pass, ident(h.decl), name,
				"codec group %q has no %s half in this package", g, missing)
			continue
		}
		encOps := x.funcOps(p.enc.decl)
		decOps := x.funcOps(p.dec.decl)
		c := &comparer{pass: pass, group: g, enc: p.enc, dec: p.dec}
		c.compare(encOps, decOps)
	}
	return nil, nil
}

func ident(fd *ast.FuncDecl) ast.Node { return fd.Name }

func parseDirective(comment string) (group, role string, ok bool) {
	text := strings.TrimPrefix(comment, "//")
	if !strings.HasPrefix(text, Directive) {
		return "", "", false
	}
	fields := strings.Fields(strings.TrimPrefix(text, Directive))
	if len(fields) != 2 {
		return "", "", false
	}
	return fields[0], fields[1], true
}

// ---------------------------------------------------------------------------
// Extraction: lower a function body to an op stream.

type extractor struct {
	pass      *analysis.Pass
	skipLines map[string]map[int]bool
	cache     map[*types.Func][]op
	inFlight  map[*types.Func]bool
}

func (x *extractor) funcOps(fd *ast.FuncDecl) []op {
	return x.normalize(x.stmtOps(fd.Body.List, fd))
}

// stmtOps lowers a statement list in source order.
func (x *extractor) stmtOps(stmts []ast.Stmt, fd *ast.FuncDecl) []op {
	var out []op
	for _, st := range stmts {
		out = append(out, x.oneStmt(st, fd)...)
	}
	return out
}

func (x *extractor) oneStmt(st ast.Stmt, fd *ast.FuncDecl) []op {
	switch st := st.(type) {
	case *ast.ExprStmt:
		return x.exprOps(st.X)
	case *ast.AssignStmt:
		var out []op
		for _, r := range st.Rhs {
			out = append(out, x.exprOps(r)...)
		}
		return out
	case *ast.DeclStmt:
		var out []op
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				out = append(out, x.exprOps(e)...)
				return false
			}
			return true
		})
		return out
	case *ast.ReturnStmt:
		var out []op
		for _, r := range st.Results {
			out = append(out, x.exprOps(r)...)
		}
		return out
	case *ast.BlockStmt:
		return x.stmtOps(st.List, fd)
	case *ast.IfStmt:
		return x.ifOps(st, fd)
	case *ast.SwitchStmt:
		return x.switchOps(st, fd)
	case *ast.ForStmt:
		return x.loopOps(st.Cond, nil, st.Body, st.Pos(), fd)
	case *ast.RangeStmt:
		return x.loopOps(nil, st.X, st.Body, st.Pos(), fd)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.DeferStmt, *ast.GoStmt,
		*ast.SelectStmt, *ast.TypeSwitchStmt, *ast.LabeledStmt, *ast.SendStmt:
		return nil
	}
	return nil
}

func (x *extractor) ifOps(st *ast.IfStmt, fd *ast.FuncDecl) []op {
	var out []op
	if st.Init != nil {
		out = append(out, x.oneStmt(st.Init, fd)...)
	}
	out = append(out, x.exprOps(st.Cond)...)
	body := x.normalize(x.stmtOps(st.Body.List, fd))
	var elseOps []op
	if st.Else != nil {
		elseOps = x.normalize(x.oneStmt(st.Else, fd))
	}
	switch {
	case len(body) == 0 && len(elseOps) == 0:
		// Validation / bookkeeping branch: no codec content.
	case isErrGuard(st.Cond):
		// Error plumbing is transparent: the ops happen on the success path.
		out = append(out, body...)
		out = append(out, elseOps...)
	case len(body) > 0 && len(elseOps) > 0:
		if opsEqual(body, elseOps) {
			out = append(out, body...)
		} else {
			// Diverging branches cannot be modeled as one canonical layout.
			lintutil.Report(x.pass, st, name,
				"conditional encodes different layouts ([%s] vs [%s]): a canonical codec must write one shape per value",
				opsString(body), opsString(elseOps))
			out = append(out, body...)
		}
	default:
		section := body
		if len(section) == 0 {
			section = elseOps
		}
		out = append(out, op{kind: "opt", flag: x.flagKey(st.Cond, fd), body: section, pos: st.Pos()})
	}
	return out
}

func (x *extractor) switchOps(st *ast.SwitchStmt, fd *ast.FuncDecl) []op {
	var out []op
	if st.Init != nil {
		out = append(out, x.oneStmt(st.Init, fd)...)
	}
	if st.Tag != nil {
		out = append(out, x.exprOps(st.Tag)...)
	}
	sw := op{kind: "switch", pos: st.Pos()}
	any := false
	for _, cl := range st.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		key := "default"
		if cc.List != nil {
			parts := make([]string, len(cc.List))
			for i, e := range cc.List {
				parts[i] = types.ExprString(e)
			}
			key = strings.Join(parts, ",")
		}
		body := x.normalize(x.stmtOps(cc.Body, fd))
		if len(body) > 0 {
			any = true
		}
		sw.cases = append(sw.cases, swCase{key: key, body: body})
	}
	if any {
		out = append(out, sw)
	}
	return out
}

func (x *extractor) loopOps(cond ast.Expr, rangeX ast.Expr, body *ast.BlockStmt, pos token.Pos, fd *ast.FuncDecl) []op {
	var out []op
	if cond != nil {
		out = append(out, x.exprOps(cond)...)
	}
	if rangeX != nil {
		out = append(out, x.exprOps(rangeX)...)
	}
	inner := x.normalize(x.stmtOps(body.List, fd))
	if len(inner) == 0 {
		return out
	}
	return append(out, op{kind: "rep", body: inner, pos: pos})
}

// exprOps lowers one expression tree, left to right.
func (x *extractor) exprOps(e ast.Expr) []op {
	var out []op
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			ops, recurse := x.callOps(n)
			out = append(out, ops...)
			return recurse
		}
		return true
	})
	// Drop ops on //codec:skip lines (framing fields such as a length
	// prefix that the paired half strips before decoding).
	kept := out[:0]
	for _, o := range out {
		p := x.pass.Fset.Position(o.pos)
		if x.skipLines[p.Filename][p.Line] {
			continue
		}
		kept = append(kept, o)
	}
	return kept
}

// readerOps maps the repo's reader methods to op shapes. They match by name
// on any package-local receiver: wire's bounds-checked frameReader cursor
// and its checkedBlock (fixed-offset reads of a pre-checked record) alike.
var readerOps = map[string][]string{
	"u8":      {"u8"},
	"u16":     {"u16"},
	"u32":     {"u32"},
	"u64":     {"u64"},
	"f64":     {"u64"},
	"take":    {"bytes"},
	"bytes16": {"u16", "bytes"},
	"f64s":    {"vec"},
	"point":   {"u16", "vec"},
}

// callOps classifies one call. recurse reports whether the walk should
// descend into the call's children (arguments).
func (x *extractor) callOps(call *ast.CallExpr) (ops []op, recurse bool) {
	// Builtin append on a byte slice: ellipsis is a byte-string write, each
	// extra scalar argument one u8.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := x.pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			if isByteSlice(x.pass.TypesInfo.TypeOf(call.Args[0])) {
				if call.Ellipsis != token.NoPos {
					return []op{{kind: "bytes", pos: call.Pos()}}, true
				}
				for range call.Args[1:] {
					ops = append(ops, op{kind: "u8", pos: call.Pos()})
				}
				return ops, true
			}
			return nil, true // appending structure, not bytes; scan args
		}
	}
	fn, _ := typeutil.Callee(x.pass.TypesInfo, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil, true // conversion or dynamic call: scan children
	}
	sig, _ := fn.Type().(*types.Signature)
	if fn.Pkg().Path() == "encoding/binary" {
		switch {
		case strings.HasPrefix(fn.Name(), "AppendUint"):
			kind := "u" + strings.TrimPrefix(fn.Name(), "AppendUint")
			if len(call.Args) == 2 && containsCRC(x.pass, call.Args[1]) {
				kind = "crc"
			}
			return []op{{kind: kind, pos: call.Pos()}}, false
		case strings.HasPrefix(fn.Name(), "PutUint"):
			return nil, false // in-place patch of already-counted framing
		}
		return nil, true
	}
	if sig != nil && sig.Recv() != nil && fn.Pkg() == x.pass.Pkg {
		if shapes, ok := readerOps[fn.Name()]; ok {
			for _, k := range shapes {
				ops = append(ops, op{kind: k, pos: call.Pos()})
			}
			return ops, false
		}
	}
	// Package-local helper (function or method): inline its ops so
	// appendBytes16-style wrappers compare against their reader twins.
	if fn.Pkg() == x.pass.Pkg {
		return x.inlined(fn), true
	}
	return nil, true
}

// inlined returns a package-local callee's op stream (cached, cycle-safe).
func (x *extractor) inlined(fn *types.Func) []op {
	if ops, ok := x.cache[fn]; ok {
		return ops
	}
	if x.inFlight[fn] {
		return nil // recursion: treat the nested call as opaque
	}
	var decl *ast.FuncDecl
	for _, f := range x.pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if def, ok := x.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && def == fn {
					decl = fd
				}
			}
		}
	}
	if decl == nil {
		return nil
	}
	x.inFlight[fn] = true
	ops := x.normalize(x.stmtOps(decl.Body.List, decl))
	delete(x.inFlight, fn)
	x.cache[fn] = ops
	return ops
}

// normalize collapses repeated-scalar loops to vectors and drops framing:
// rep[u64] and rep[vec] become vec (an n×m float block reads the same as a
// flat one), crc ops vanish, and op-free switches dissolve.
func (x *extractor) normalize(ops []op) []op {
	var out []op
	for _, o := range ops {
		switch o.kind {
		case "crc":
			continue
		case "rep":
			body := x.normalize(o.body)
			if len(body) == 0 {
				continue
			}
			if len(body) == 1 && (body[0].kind == "u64" || body[0].kind == "vec") {
				out = append(out, op{kind: "vec", pos: o.pos})
				continue
			}
			out = append(out, op{kind: "rep", body: body, pos: o.pos})
		case "opt":
			body := x.normalize(o.body)
			if len(body) == 0 {
				continue
			}
			out = append(out, op{kind: "opt", flag: o.flag, body: body, pos: o.pos})
		case "switch":
			any := false
			cases := make([]swCase, 0, len(o.cases))
			for _, c := range o.cases {
				b := x.normalize(c.body)
				if len(b) > 0 {
					any = true
				}
				cases = append(cases, swCase{key: c.key, body: b})
			}
			if !any {
				continue
			}
			out = append(out, op{kind: "switch", cases: cases, pos: o.pos})
		default:
			out = append(out, o)
		}
	}
	return out
}

// flagKey names the constant gating an optional section: a constant
// referenced directly in the condition, or — for an `if hasX` bool — the
// constant OR-ed into the flags word under the same bool elsewhere in the
// function (the `if hasX { flags |= FlagX }` idiom).
func (x *extractor) flagKey(cond ast.Expr, fd *ast.FuncDecl) string {
	key := ""
	ast.Inspect(cond, func(n ast.Node) bool {
		if key != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if c, ok := x.pass.TypesInfo.ObjectOf(id).(*types.Const); ok && c.Name() != "true" && c.Name() != "false" {
			key = c.Name()
			return false
		}
		return true
	})
	if key != "" {
		return key
	}
	// `if hasX { section }` with `if hasX { flags |= FlagX }` elsewhere.
	condID, ok := cond.(*ast.Ident)
	if !ok {
		return ""
	}
	condObj := x.pass.TypesInfo.ObjectOf(condID)
	if condObj == nil {
		return ""
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if key != "" {
			return false
		}
		ifSt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		guard, ok := ifSt.Cond.(*ast.Ident)
		if !ok || x.pass.TypesInfo.ObjectOf(guard) != condObj {
			return true
		}
		for _, st := range ifSt.Body.List {
			as, ok := st.(*ast.AssignStmt)
			if !ok || as.Tok != token.OR_ASSIGN {
				continue
			}
			ast.Inspect(as.Rhs[0], func(m ast.Node) bool {
				if key != "" {
					return false
				}
				if id, ok := m.(*ast.Ident); ok {
					if c, ok := x.pass.TypesInfo.ObjectOf(id).(*types.Const); ok {
						key = c.Name()
						return false
					}
				}
				return true
			})
		}
		return key == ""
	})
	return key
}

func isErrGuard(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "err" {
			found = true
			return false
		}
		return !found
	})
	return found
}

func containsCRC(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "hash/crc32" {
			found = true
			return false
		}
		return !found
	})
	return found
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

// ---------------------------------------------------------------------------
// Comparison.

type comparer struct {
	pass     *analysis.Pass
	group    string
	enc, dec *half
	reported bool
}

// compare walks both op streams in lockstep and reports the first
// divergence per pair (later ones are usually knock-on noise).
func (c *comparer) compare(enc, dec []op) {
	c.walk(enc, dec, "")
}

func (c *comparer) report(pos token.Pos, format string, args ...any) {
	if c.reported || lintutil.Suppressed(c.pass, pos, name) {
		return
	}
	c.reported = true
	prefix := fmt.Sprintf("codec %q: ", c.group)
	c.pass.Reportf(pos, prefix+format, args...)
}

func (c *comparer) walk(enc, dec []op, path string) {
	n := len(enc)
	if len(dec) < n {
		n = len(dec)
	}
	for i := 0; i < n; i++ {
		if c.reported {
			return
		}
		e, d := enc[i], dec[i]
		if e.kind != d.kind {
			c.report(e.pos, "encode writes %s where decode reads %s (step %d%s; decode at %s)",
				e.String(), d.String(), i+1, path, c.pass.Fset.Position(d.pos))
			return
		}
		switch e.kind {
		case "rep":
			c.walk(e.body, d.body, path+" > rep")
		case "opt":
			if e.flag == "" || d.flag == "" {
				side, pos := "encode", e.pos
				if e.flag != "" {
					side, pos = "decode", d.pos
				}
				c.report(pos, "%s has an optional section with no flag tie: the gating condition must "+
					"set/test a flag constant so presence is explicit on the wire", side)
				return
			}
			if e.flag != d.flag {
				c.report(e.pos, "optional section gated on %s in encode but %s in decode (at %s)",
					e.flag, d.flag, c.pass.Fset.Position(d.pos))
				return
			}
			c.walk(e.body, d.body, path+" > opt("+e.flag+")")
		case "switch":
			c.walkSwitch(e, d, path)
		}
	}
	if c.reported {
		return
	}
	if len(enc) > len(dec) {
		o := enc[len(dec)]
		c.report(o.pos, "encode writes %s with no matching read in decode (%s reads %d op(s)%s, encode writes %d)",
			o.String(), c.dec.decl.Name.Name, len(dec), path, len(enc))
	} else if len(dec) > len(enc) {
		o := dec[len(enc)]
		c.report(o.pos, "decode reads %s with no matching write in encode (%s writes %d op(s)%s, decode reads %d)",
			o.String(), c.enc.decl.Name.Name, len(enc), path, len(dec))
	}
}

func (c *comparer) walkSwitch(e, d op, path string) {
	em := map[string][]op{}
	for _, cs := range e.cases {
		em[cs.key] = cs.body
	}
	dm := map[string][]op{}
	for _, cs := range d.cases {
		dm[cs.key] = cs.body
	}
	keys := make([]string, 0, len(em))
	for k := range em {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if c.reported {
			return
		}
		db, ok := dm[k]
		if !ok {
			c.report(e.pos, "encode switch case %q has no matching decode case (decode at %s)",
				k, c.pass.Fset.Position(d.pos))
			return
		}
		c.walk(em[k], db, path+" > case "+k)
	}
	for k := range dm {
		if c.reported {
			return
		}
		if _, ok := em[k]; !ok {
			c.report(d.pos, "decode switch case %q has no matching encode case (encode at %s)",
				k, c.pass.Fset.Position(e.pos))
			return
		}
	}
}

func opsEqual(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].flag != b[i].flag {
			return false
		}
		if !opsEqual(a[i].body, b[i].body) {
			return false
		}
		if len(a[i].cases) != len(b[i].cases) {
			return false
		}
		for j := range a[i].cases {
			if a[i].cases[j].key != b[i].cases[j].key || !opsEqual(a[i].cases[j].body, b[i].cases[j].body) {
				return false
			}
		}
	}
	return true
}
