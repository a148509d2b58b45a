// Package ctxretain forbids keeping a sim.Context beyond the handler call
// it was passed to.
//
// The engine hands every handler call on one core, in either timing model,
// the same Context value, rebound to the node whose handler runs next; the Context
// documentation makes it valid only for the call it was passed to. A kept
// Context therefore does not fail loudly: a later Send through it silently
// sends as whatever node the core is running at that moment. This
// analyzer reports the ways a handler can keep one:
//
//   - storing it in a struct field (an assignment or a struct literal);
//   - storing it in a package-level variable;
//   - storing it in a container: an index expression, a slice, array or
//     map literal, an append, or a channel send;
//   - passing it to a go statement, as an argument or captured by the
//     goroutine's function literal.
//
// A function literal that captures a Context counts as the Context, so
// storing such a closure is reported too. Locals, parameters and calls
// that merely use the Context during the handler are fine.
//
// Deliberate exceptions are suppressed line by line:
//
//	//lint:ctxretain-ok <why the Context cannot outlive the call>
//
// on the line or the line above. A bare suppression without a reason is
// itself a diagnostic. Test files are exempt.
package ctxretain

import (
	"go/ast"
	"go/types"
	"strings"

	"riseandshine/tools/analyzers/analysis"
)

// Analyzer is the ctxretain pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxretain",
	Doc:  "forbid keeping a sim.Context past its handler call (fields, package variables, containers, go statements)",
	Run:  run,
}

const (
	suppressionMarker = "lint:ctxretain-ok"
	simPath           = "riseandshine/internal/sim"
	why               = "a Context is valid only during its handler call, and the engine rebinds one per core, so a kept one acts as the core's next node"
)

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if pass.TestFile(f.Pos()) {
			continue
		}
		c := &checker{pass: pass, supp: collectSuppressions(pass, f)}
		ast.Inspect(f, c.visit)
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	supp map[int]string
}

func (c *checker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return true // a multi-value call: no Context-typed result in the repo's APIs
		}
		for i, lhs := range n.Lhs {
			if c.retains(n.Rhs[i]) {
				c.checkStore(lhs)
			}
		}
	case *ast.CompositeLit:
		c.checkLiteral(n)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, builtin := c.pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
				for _, arg := range n.Args[1:] {
					if c.retains(arg) {
						c.report(arg, "sim.Context appended to a container")
					}
				}
			}
		}
	case *ast.SendStmt:
		if c.retains(n.Value) {
			c.report(n.Value, "sim.Context sent on a channel")
		}
	case *ast.GoStmt:
		c.checkGo(n)
	}
	return true
}

// checkStore reports an assignment of a Context to lhs unless lhs is a
// local variable.
func (c *checker) checkStore(lhs ast.Expr) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel := c.pass.TypesInfo.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			c.report(lhs, "sim.Context stored in struct field "+x.Sel.Name)
			return
		}
		if v, ok := c.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && isPackageVar(v) {
			c.report(lhs, "sim.Context stored in package variable "+v.Name())
		}
	case *ast.IndexExpr:
		c.report(lhs, "sim.Context stored in a container")
	case *ast.StarExpr:
		c.report(lhs, "sim.Context stored through a pointer")
	case *ast.Ident:
		if v, ok := c.pass.TypesInfo.Uses[x].(*types.Var); ok && isPackageVar(v) {
			c.report(lhs, "sim.Context stored in package variable "+v.Name())
		}
	}
}

// checkLiteral reports Context elements of struct, slice, array and map
// literals.
func (c *checker) checkLiteral(lit *ast.CompositeLit) {
	t := c.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	_, isStruct := t.Underlying().(*types.Struct)
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if !isStruct && c.retains(kv.Key) {
				c.report(kv.Key, "sim.Context stored in a container")
			}
			elt = kv.Value
		}
		if !c.retains(elt) {
			continue
		}
		if isStruct {
			c.report(elt, "sim.Context stored in a struct field")
		} else {
			c.report(elt, "sim.Context stored in a container")
		}
	}
}

// checkGo reports a Context handed to a goroutine: a call argument, or a
// variable the goroutine's function literal captures.
func (c *checker) checkGo(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if c.retains(arg) {
			c.report(arg, "sim.Context passed to a go statement")
		}
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if id := c.captured(lit); id != nil {
			c.report(id, "sim.Context captured by a go statement")
		}
	}
}

// retains reports whether storing e keeps a Context: e is one, or e is a
// function literal that captures one.
func (c *checker) retains(e ast.Expr) bool {
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.FuncLit); ok {
		return c.captured(lit) != nil
	}
	return isSimContext(c.pass.TypesInfo.TypeOf(e))
}

// captured returns the first use inside lit of a Context variable declared
// outside it, or nil.
func (c *checker) captured(lit *ast.FuncLit) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found != nil {
			return found == nil
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if ok && isSimContext(v.Type()) && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			found = id
		}
		return true
	})
	return found
}

func (c *checker) report(at ast.Expr, what string) {
	line := c.pass.Fset.Position(at.Pos()).Line
	if reason, ok := c.supp[line]; ok {
		if reason == "" {
			c.pass.Reportf(at.Pos(),
				"ctxretain: suppression %s requires a justification: //%s <reason>", suppressionMarker, suppressionMarker)
		}
		return
	}
	c.pass.Reportf(at.Pos(), "ctxretain: %s; %s (or annotate //%s <reason>)", what, why, suppressionMarker)
}

// isSimContext reports whether t is the sim.Context interface itself.
func isSimContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == simPath
}

func isPackageVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// collectSuppressions maps the source lines covered by
// //lint:ctxretain-ok comments (the comment's line and the line below) to
// the reason text.
func collectSuppressions(pass *analysis.Pass, f *ast.File) map[int]string {
	covered := make(map[int]string)
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
			rest, ok := strings.CutPrefix(text, suppressionMarker)
			if !ok {
				continue
			}
			line := pass.Fset.Position(cm.Pos()).Line
			covered[line] = strings.TrimSpace(rest)
			covered[line+1] = covered[line]
		}
	}
	return covered
}
