// Package detrand forbids nondeterministic entropy sources in the
// simulator's deterministic packages.
//
// The reproduction's core guarantee is that a run is byte-identical for a
// given (seed, run index): all randomness must flow from sim.NodeRand /
// sim.RunSeed derivations and no code may observe wall-clock time. This
// analyzer enforces that contract:
//
//   - calls to (or references of) the global math/rand source — rand.Intn,
//     rand.Perm, rand.Shuffle, rand.Seed, … — are flagged; constructing an
//     explicitly seeded generator (rand.New(rand.NewSource(seed))) remains
//     allowed, since an explicit seed is exactly how determinism is wired;
//   - rand.NewSource(time.Now()…) is flagged specifically: a wall-clock
//     seed makes every run unique;
//   - any other use of time.Now is flagged — simulated time is sim.Time,
//     and wall-clock timestamps in results or logs break byte-identity;
//   - sync.Pool is flagged: whether Get returns a recycled object or calls
//     New depends on GC timing and scheduler interleaving, so pooled reuse
//     is invisible nondeterminism even when the objects are "reset". The
//     deterministic packages reuse scratch by resetting explicitly owned
//     buffers in place (one engine per worker, grow-and-clear slices — see
//     sim.Engine), which has the same allocation profile and none of
//     the scheduling dependence.
//
// The check is interprocedural: a function whose body (transitively,
// through same-package calls) touches a forbidden entropy source carries a
// Tainted fact, serialized alongside the package's export data. Referencing
// a tainted function from another package is then a diagnostic at the use
// site — wrapping time.Now in a helper one package over no longer slips
// past the direct-call check. Within one package the root use site is
// already flagged, so local calls to tainted functions are not re-reported.
//
// Test files are exempt (the driver additionally exempts examples/ and
// all packages outside the deterministic set).
package detrand

import (
	"fmt"
	"go/ast"
	"go/types"

	"riseandshine/tools/analyzers/analysis"
)

// Tainted marks a function that transitively observes a nondeterministic
// entropy source. Reason is the call chain down to the source, e.g.
// "Jitter → seedFromClock → time.Now".
type Tainted struct {
	Reason string
}

// AFact marks Tainted as a serializable fact.
func (*Tainted) AFact() {}

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name:      "detrand",
	Doc:       "forbid global math/rand, time.Now, and sync.Pool (directly or through tainted wrappers) in deterministic simulator packages",
	Run:       run,
	FactTypes: []analysis.Fact{(*Tainted)(nil)},
}

// allowedRand lists math/rand selectors that do not touch the global
// source: explicit-seed constructors and type names. Everything else on
// the package (Intn, Perm, Shuffle, Seed, Int63, Float64, …) reads or
// reseeds the process-global generator.
var allowedRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"Rand":      true,
	"Source":    true,
	"Source64":  true,
	"Zipf":      true,
	// math/rand/v2 explicit-seed constructors and types.
	"NewPCG":     true,
	"PCG":        true,
	"NewChaCha8": true,
	"ChaCha8":    true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	runDirect(pass)
	runTaint(pass)
	return nil, nil
}

// runDirect flags direct uses of the forbidden entropy sources.
func runDirect(pass *analysis.Pass) {
	for _, f := range pass.Files {
		if pass.TestFile(f.Pos()) {
			continue
		}
		// First pass: find time.Now calls nested in rand.NewSource
		// arguments so they get the targeted message, not the generic one.
		seedFromClock := make(map[ast.Expr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(pass, call.Fun, randPkg, "NewSource") {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if inner, ok := m.(*ast.CallExpr); ok && isPkgFunc(pass, inner.Fun, timePkg, "Now") {
						seedFromClock[inner.Fun] = true
						pass.Reportf(call.Pos(),
							"detrand: rand.NewSource(time.Now()…) seeds from the wall clock and makes runs irreproducible; derive the seed with sim.RunSeed")
					}
					return true
				})
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch pkgOf(pass, sel.X) {
			case randPkg:
				if !allowedRand[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"detrand: rand.%s uses the process-global math/rand source; use a *rand.Rand from sim.NodeRand (node-private) or seeded via sim.RunSeed", sel.Sel.Name)
				}
			case timePkg:
				if sel.Sel.Name == "Now" && !seedFromClock[sel] {
					pass.Reportf(sel.Pos(),
						"detrand: time.Now reads the wall clock and breaks run reproducibility; simulated time is sim.Time — thread it through explicitly")
				}
			case syncPkg:
				if sel.Sel.Name == "Pool" {
					pass.Reportf(sel.Pos(),
						"detrand: sync.Pool reuse depends on GC timing and scheduling; keep explicitly owned scratch and reset it in place (one engine per worker) instead")
				}
			}
			return true
		})
	}
}

// runTaint computes the interprocedural layer: which functions of this
// package (transitively) touch an entropy source, exporting a Tainted fact
// for each, and which expressions reference an imported tainted function.
func runTaint(pass *analysis.Pass) {
	// reason maps each function declared in this package to the call chain
	// that taints it ("" = clean so far). Seed with direct source uses and
	// references to already-tainted imported functions.
	reason := make(map[*types.Func]string)
	calls := make(map[*types.Func][]*types.Func) // caller -> same-package callees
	var decls []*types.Func

	for _, f := range pass.Files {
		if pass.TestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, fn)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					switch pkgOf(pass, n.X) {
					case randPkg:
						if !allowedRand[n.Sel.Name] && reason[fn] == "" {
							reason[fn] = "rand." + n.Sel.Name
						}
					case timePkg:
						if n.Sel.Name == "Now" && reason[fn] == "" {
							reason[fn] = "time.Now"
						}
					default:
						if callee, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func); ok {
							noteCallee(pass, fn, callee, reason, calls)
						}
					}
				case *ast.Ident:
					if callee, ok := pass.TypesInfo.Uses[n].(*types.Func); ok {
						noteCallee(pass, fn, callee, reason, calls)
					}
				}
				return true
			})
		}
	}

	// Propagate taint through same-package references to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, fn := range decls {
			if reason[fn] != "" {
				continue
			}
			for _, callee := range calls[fn] {
				if r := reason[callee]; r != "" {
					reason[fn] = callee.Name() + " → " + r
					changed = true
					break
				}
			}
		}
	}
	for _, fn := range decls {
		if r := reason[fn]; r != "" {
			pass.ExportObjectFact(fn, &Tainted{Reason: r})
		}
	}

	// Diagnose references to tainted functions from other packages. Local
	// tainted calls are not re-flagged: the root use site in this package
	// already carries the direct diagnostic.
	for _, f := range pass.Files {
		if pass.TestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			callee, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || callee.Pkg() == nil || callee.Pkg() == pass.Pkg {
				return true
			}
			var t Tainted
			if pass.ImportObjectFact(callee, &t) {
				pass.Reportf(sel.Pos(),
					"detrand: %s.%s is tainted by a nondeterministic entropy source (%s); derive randomness from sim.NodeRand / sim.RunSeed and thread sim.Time instead",
					callee.Pkg().Name(), callee.Name(), t.Reason)
			}
			return true
		})
	}
}

// noteCallee records a reference from fn to callee: an edge for the local
// fixpoint when callee is declared in this package, an immediate taint seed
// when callee is imported and carries a Tainted fact.
func noteCallee(pass *analysis.Pass, fn, callee *types.Func, reason map[*types.Func]string, calls map[*types.Func][]*types.Func) {
	if callee.Pkg() == pass.Pkg {
		calls[fn] = append(calls[fn], callee)
		return
	}
	var t Tainted
	if reason[fn] == "" && pass.ImportObjectFact(callee, &t) {
		reason[fn] = fmt.Sprintf("%s.%s → %s", callee.Pkg().Name(), callee.Name(), t.Reason)
	}
}

type pkgKind int

const (
	otherPkg pkgKind = iota
	randPkg
	timePkg
	syncPkg
)

// pkgOf classifies the package an identifier names, resolving through
// import aliases.
func pkgOf(pass *analysis.Pass, x ast.Expr) pkgKind {
	id, ok := x.(*ast.Ident)
	if !ok {
		return otherPkg
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return otherPkg
	}
	switch pn.Imported().Path() {
	case "math/rand", "math/rand/v2":
		return randPkg
	case "time":
		return timePkg
	case "sync":
		return syncPkg
	}
	return otherPkg
}

// isPkgFunc reports whether fun is a selector pkg.name for the given
// package kind.
func isPkgFunc(pass *analysis.Pass, fun ast.Expr, kind pkgKind, name string) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name && pkgOf(pass, sel.X) == kind
}
