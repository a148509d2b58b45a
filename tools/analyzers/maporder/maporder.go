// Package maporder flags `for … range` loops over map values whose body
// is not provably order-insensitive.
//
// Go randomizes map iteration order per loop, so any effect of the body
// that depends on visit order — appending to a slice that is later read
// in order, sending messages, writing output, early returns — leaks
// scheduler-grade nondeterminism into results that the simulator promises
// are byte-identical per seed. The analyzer accepts a loop when every
// statement of its body falls into a small vocabulary of commutative
// patterns:
//
//   - accumulation into another map (m2[k] = v), or into a slice indexed
//     by the loop key (s[k] = v): distinct keys write distinct cells;
//   - reductions: x++, x--, x += e, x *= e, x |= e, x ^= e, x &= e;
//   - conditional extremum updates: if v > best { best = v };
//   - guarded reductions (if cond { count++ }) and pure conditionals
//     recursively built from the same vocabulary; `continue` is allowed,
//     `break`/`return` are not (they make the processed subset
//     order-dependent);
//   - collect-then-sort: s = append(s, k) where a later statement of the
//     same block passes s to a function whose name contains "sort"
//     (slices.Sort, slices.SortFunc, sort.Slice, …), the idiom used throughout
//     internal/core and internal/graph.
//
// Anything else needs an explicit, justified suppression on the loop line
// or the line above:
//
//	//lint:maporder-ok <why the order cannot escape>
//
// A suppression without a justification is itself a diagnostic: the
// comment is the code-review record for why the loop is safe.
//
// Test files are exempt.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"riseandshine/tools/analyzers/analysis"
)

// Analyzer is the maporder pass.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive iteration over maps in deterministic simulator packages",
	Run:  run,
}

// suppressionMarker introduces a justified exception.
const suppressionMarker = "lint:maporder-ok"

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if pass.TestFile(f.Pos()) {
			continue
		}
		suppressions := collectSuppressions(pass, f)
		v := &visitor{pass: pass, suppressions: suppressions}
		ast.Inspect(f, v.visit)
	}
	return nil, nil
}

// collectSuppressions maps source lines to the justification text of any
// //lint:maporder-ok comment on them.
func collectSuppressions(pass *analysis.Pass, f *ast.File) map[int]string {
	out := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(strings.TrimSpace(text), "lint:")
			if !strings.HasPrefix("lint:"+text, suppressionMarker) {
				continue
			}
			rest, ok := strings.CutPrefix("lint:"+text, suppressionMarker)
			if !ok {
				continue
			}
			out[pass.Fset.Position(c.Pos()).Line] = strings.TrimSpace(rest)
		}
	}
	return out
}

type visitor struct {
	pass         *analysis.Pass
	suppressions map[int]string
}

// visit scans every statement list for range-over-map loops, keeping the
// trailing statements of the enclosing block available for the
// collect-then-sort check.
func (v *visitor) visit(n ast.Node) bool {
	var list []ast.Stmt
	switch b := n.(type) {
	case *ast.BlockStmt:
		list = b.List
	case *ast.CaseClause:
		list = b.Body
	case *ast.CommClause:
		list = b.Body
	default:
		return true
	}
	for i, stmt := range list {
		rs, ok := stmt.(*ast.RangeStmt)
		if !ok || !v.isMapRange(rs) {
			continue
		}
		line := v.pass.Fset.Position(rs.For).Line
		justification, suppressed := v.suppressions[line]
		if !suppressed {
			justification, suppressed = v.suppressions[line-1]
		}
		if suppressed {
			if justification == "" {
				v.pass.Reportf(rs.For, "maporder: suppression %s requires a justification: //%s <reason>", suppressionMarker, suppressionMarker)
			}
			continue
		}
		if !v.orderInsensitive(rs, list[i+1:]) {
			v.pass.Reportf(rs.For,
				"maporder: map iteration order can escape this loop; sort the keys first (collect-then-sort), restructure, or annotate //%s <reason>", suppressionMarker)
		}
	}
	return true
}

func (v *visitor) isMapRange(rs *ast.RangeStmt) bool {
	tv := v.pass.TypesInfo.TypeOf(rs.X)
	if tv == nil {
		return false
	}
	_, ok := tv.Underlying().(*types.Map)
	return ok
}

// orderInsensitive decides whether the loop body's observable effects are
// independent of iteration order; rest holds the statements following the
// loop in its enclosing block, consulted for later sorts of collected
// slices.
func (v *visitor) orderInsensitive(rs *ast.RangeStmt, rest []ast.Stmt) bool {
	st := &bodyState{
		visitor:   v,
		loopVars:  make(map[types.Object]bool),
		locals:    make(map[types.Object]bool),
		collected: make(map[types.Object]bool),
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := v.pass.TypesInfo.Defs[id]; obj != nil {
				st.loopVars[obj] = true
			}
		}
	}
	if !st.stmtsOK(rs.Body.List) {
		return false
	}
	// Every collected slice must be sorted after the loop.
	for obj := range st.collected {
		if !sortedLater(v.pass, obj, rest) {
			return false
		}
	}
	return true
}

// bodyState tracks classification state while walking a loop body.
type bodyState struct {
	*visitor
	loopVars  map[types.Object]bool // the range key/value variables
	locals    map[types.Object]bool // variables declared inside the body
	collected map[types.Object]bool // slices built by s = append(s, …)
}

func (st *bodyState) stmtsOK(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !st.stmtOK(s) {
			return false
		}
	}
	return true
}

func (st *bodyState) stmtOK(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return st.assignOK(s)
	case *ast.IncDecStmt:
		return true
	case *ast.BlockStmt:
		return st.stmtsOK(s.List)
	case *ast.IfStmt:
		return st.ifOK(s)
	case *ast.RangeStmt:
		// A nested range adds its own loop variables.
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := st.pass.TypesInfo.Defs[id]; obj != nil {
					st.locals[obj] = true
				}
			}
		}
		return st.pure(s.X) && st.stmtsOK(s.Body.List)
	case *ast.ForStmt:
		condOK := s.Cond == nil || st.pure(s.Cond)
		initOK := s.Init == nil || st.stmtOK(s.Init)
		postOK := s.Post == nil || st.stmtOK(s.Post)
		return condOK && initOK && postOK && st.stmtsOK(s.Body.List)
	case *ast.DeclStmt:
		return st.declOK(s)
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.SwitchStmt:
		if s.Init != nil && !st.stmtOK(s.Init) {
			return false
		}
		if s.Tag != nil && !st.pure(s.Tag) {
			return false
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok || !st.stmtsOK(cc.Body) {
				return false
			}
			for _, e := range cc.List {
				if !st.pure(e) {
					return false
				}
			}
		}
		return true
	case *ast.EmptyStmt:
		return true
	default:
		// Calls, returns, sends, go/defer, deletes, prints: order may escape.
		return false
	}
}

// declOK accepts `var x = e` / `var x T` declarations with pure
// initializers; the declared names become body-locals.
func (st *bodyState) declOK(s *ast.DeclStmt) bool {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return false
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			return false
		}
		for _, val := range vs.Values {
			if !st.pure(val) {
				return false
			}
		}
		for _, name := range vs.Names {
			if obj := st.pass.TypesInfo.Defs[name]; obj != nil {
				st.locals[obj] = true
			}
		}
	}
	return true
}

// assignOK classifies a single assignment.
func (st *bodyState) assignOK(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN:
		// Commutative reductions.
		return len(s.Lhs) == 1 && st.pure(s.Lhs[0]) && st.pure(s.Rhs[0])
	case token.DEFINE:
		// New locals; their values stay inside the iteration.
		for _, l := range s.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				return false
			}
			if obj := st.pass.TypesInfo.Defs[id]; obj != nil {
				st.locals[obj] = true
			}
		}
		for _, r := range s.Rhs {
			if !st.pure(r) {
				return false
			}
		}
		return true
	case token.ASSIGN:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		return st.plainAssignOK(s.Lhs[0], s.Rhs[0])
	default:
		return false
	}
}

// plainAssignOK handles x = e forms.
func (st *bodyState) plainAssignOK(lhs, rhs ast.Expr) bool {
	// s = append(s, …): collect for a later sort.
	if id, ok := lhs.(*ast.Ident); ok {
		if call, ok := rhs.(*ast.CallExpr); ok {
			if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && len(call.Args) >= 2 {
				if first, ok := call.Args[0].(*ast.Ident); ok && first.Name == id.Name {
					ok := true
					for _, a := range call.Args[1:] {
						if !st.pure(a) {
							ok = false
						}
					}
					if ok {
						if obj := st.pass.TypesInfo.ObjectOf(id); obj != nil {
							if !st.locals[obj] {
								st.collected[obj] = true
							}
							return true
						}
					}
				}
			}
		}
		// Plain writes to body-locals never escape an iteration.
		if obj := st.pass.TypesInfo.ObjectOf(id); obj != nil && st.locals[obj] {
			return st.pure(rhs)
		}
	}
	// m2[k] = v (map accumulation) or s[k] = v keyed by a loop variable:
	// distinct keys hit distinct cells, so order cannot matter.
	if ix, ok := lhs.(*ast.IndexExpr); ok && st.pure(ix.X) && st.pure(ix.Index) && st.pure(rhs) {
		if t := st.pass.TypesInfo.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return true
			}
		}
		if id, ok := ix.Index.(*ast.Ident); ok {
			if obj := st.pass.TypesInfo.ObjectOf(id); obj != nil && st.loopVars[obj] {
				return true
			}
		}
	}
	return false
}

// ifOK accepts conditionals whose branches stay in the vocabulary, plus
// the classic extremum idiom `if v > best { best = v }` whose plain
// assignment would otherwise be rejected.
func (st *bodyState) ifOK(s *ast.IfStmt) bool {
	if s.Init != nil && !st.stmtOK(s.Init) {
		return false
	}
	if !st.pure(s.Cond) {
		return false
	}
	if st.extremumUpdate(s) {
		return true
	}
	if !st.stmtsOK(s.Body.List) {
		return false
	}
	switch e := s.Else.(type) {
	case nil:
		return true
	case *ast.BlockStmt:
		return st.stmtsOK(e.List)
	case *ast.IfStmt:
		return st.ifOK(e)
	default:
		return false
	}
}

// extremumUpdate recognizes `if a OP b { b = a }` (and the symmetric
// forms) for comparison operators: a running min/max is order-insensitive.
func (st *bodyState) extremumUpdate(s *ast.IfStmt) bool {
	if s.Else != nil || len(s.Body.List) != 1 {
		return false
	}
	asg, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return false
	}
	l, r := exprString(asg.Lhs[0]), exprString(asg.Rhs[0])
	cl, cr := exprString(cond.X), exprString(cond.Y)
	if l == "" || r == "" {
		return false
	}
	return (l == cl && r == cr) || (l == cr && r == cl)
}

// pure reports whether evaluating e has no side effects and cannot
// observe iteration order: no calls except len/cap/min/max/abs-style
// builtins and type conversions.
func (st *bodyState) pure(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			if obj := st.pass.TypesInfo.Uses[fn]; obj != nil {
				switch obj.(type) {
				case *types.Builtin:
					if fn.Name == "len" || fn.Name == "cap" || fn.Name == "min" || fn.Name == "max" {
						return true
					}
				case *types.TypeName:
					return true // conversion
				}
			}
		case *ast.SelectorExpr:
			// pkg.Type(…) or obj.Type conversions.
			if obj := st.pass.TypesInfo.Uses[fn.Sel]; obj != nil {
				if _, ok := obj.(*types.TypeName); ok {
					return true
				}
			}
		case *ast.ArrayType, *ast.MapType, *ast.InterfaceType:
			return true // conversion to composite type
		}
		pure = false
		return false
	})
	return pure
}

// sortedLater reports whether a statement after the loop passes the
// collected slice to a sort-like function (name contains "sort",
// case-insensitively: sort.Ints, sort.Slice, slices.Sort, slices.SortFunc, …).
func sortedLater(pass *analysis.Pass, obj types.Object, rest []ast.Stmt) bool {
	for _, s := range rest {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = exprString(fn.X) + "." + fn.Sel.Name
			}
			if !strings.Contains(strings.ToLower(name), "sort") {
				return true
			}
			for _, a := range call.Args {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// exprString renders simple expressions (identifiers and selector chains)
// for syntactic comparison; other shapes yield "".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		x := exprString(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	}
	return ""
}
