package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allocCoverage maps every exported //wakeup:noalloc entry point of this
// package to the allocation-counting test that exercises it at runtime.
// TestNoallocContractsHaveRuntimeCoverage keeps the map honest in both
// directions: an annotation without a runtime pin fails, and so does a
// stale entry after an annotation (or its test) is removed. The engine's
// unexported event core — push, wake, deliver, send, the coreCtx methods
// — is pinned end to end by TestAsyncSteadyStateZeroAllocs,
// TestSyncSteadyStateZeroAllocs and TestShardedSteadyStateZeroAllocs
// instead, since it is only reachable through Run and RunSync.
var allocCoverage = map[string]string{
	"ReseedNode":  "TestReseedNodeZeroAllocs",
	"PCG.Seed":    "TestPCGZeroAllocs",
	"PCG.Uint64":  "TestPCGZeroAllocs",
	"PCG.Int63":   "TestPCGZeroAllocs",
	"PCG.Float64": "TestPCGZeroAllocs",
	"PCG.Intn":    "TestPCGZeroAllocs",
}

// TestNoallocContractsHaveRuntimeCoverage scans the package source for
// //wakeup:noalloc annotations on exported entry points and checks each is
// named in allocCoverage, and that every named covering test exists and
// counts allocations with testing.AllocsPerRun. The static analyzer proves
// the absence of AST-visible allocation sites; the runtime tests prove the
// suppressed, amortized sites really stay quiet in steady state — this
// test welds the two contract halves together.
func TestNoallocContractsHaveRuntimeCoverage(t *testing.T) {
	annotated := annotatedExportedEntryPoints(t)
	if len(annotated) == 0 {
		t.Fatal("found no exported //wakeup:noalloc entry points; the scan is broken")
	}
	counting := allocCountingTests(t)

	for _, ep := range annotated {
		test, ok := allocCoverage[ep]
		if !ok {
			t.Errorf("exported //wakeup:noalloc entry point %s has no allocation-counting test in allocCoverage", ep)
			continue
		}
		if !counting[test] {
			t.Errorf("%s names %s, which does not exist or never calls testing.AllocsPerRun", ep, test)
		}
	}
	annotatedSet := make(map[string]bool, len(annotated))
	for _, ep := range annotated {
		annotatedSet[ep] = true
	}
	for ep := range allocCoverage {
		if !annotatedSet[ep] {
			t.Errorf("allocCoverage entry %s matches no exported //wakeup:noalloc entry point (stale?)", ep)
		}
	}
}

// annotatedExportedEntryPoints parses the package's non-test files and
// returns "Func" / "Recv.Method" names of //wakeup:noalloc declarations
// whose name (and receiver type, for methods) is exported.
func annotatedExportedEntryPoints(t *testing.T) []string {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []string
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || !fd.Name.IsExported() {
				continue
			}
			marked := false
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "wakeup:noalloc") {
					marked = true
					break
				}
			}
			if !marked {
				continue
			}
			if fd.Recv == nil {
				out = append(out, fd.Name.Name)
				continue
			}
			recv := receiverTypeName(fd.Recv.List[0].Type)
			if recv == "" || !ast.IsExported(recv) {
				continue // unexported receiver: not an entry point
			}
			out = append(out, recv+"."+fd.Name.Name)
		}
	}
	sort.Strings(out)
	return out
}

// receiverTypeName unwraps *T / T / T[...] receivers to the base name.
func receiverTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// allocCountingTests parses the package's test files and returns the set
// of Test functions whose body mentions testing.AllocsPerRun.
func allocCountingTests(t *testing.T) map[string]bool {
	t.Helper()
	names, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	out := make(map[string]bool)
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "Test") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "AllocsPerRun" {
					out[fd.Name.Name] = true
					return false
				}
				return true
			})
		}
	}
	return out
}

// TestReseedNodeZeroAllocs pins the runtime half of ReseedNode's
// //wakeup:noalloc contract: reseeding an existing generator allocates
// nothing (the suppressed rand.Rand.Seed call resets state in place).
func TestReseedNodeZeroAllocs(t *testing.T) {
	r := NodeRand(7, 3)
	if allocs := testing.AllocsPerRun(100, func() {
		ReseedNode(r, 9, 5)
	}); allocs != 0 {
		t.Errorf("ReseedNode allocates %.0f times per call, want 0", allocs)
	}
}
