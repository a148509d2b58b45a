// Command wakeuplint runs the repo's determinism and performance-contract
// analyzers (detrand, maporder, congestmsg, noalloc, atomicaccess,
// globalwrite, ctxretain) over the simulator's deterministic packages.
//
// It supports two modes:
//
//   - Standalone: `wakeuplint [-list] [-only=a,b] [packages]` (default
//     ./...) loads packages via `go list -export -deps`, analyzes every
//     module package in dependency order — facts flow in memory from each
//     package to its dependents — prints file:line:col diagnostics for
//     packages inside the deterministic set, and exits 1 if any were
//     reported.
//
//   - Vettool: `go vet -vettool=$(which wakeuplint) ./...`. The go
//     command drives the tool through the unitchecker protocol — a
//     `-flags` probe, a `-V=full` version stamp for build caching, then
//     one JSON .cfg file per package carrying file lists, compiled export
//     data for every import, and the .vetx fact files those imports
//     produced (PackageVetx). Every module package is analyzed so its
//     facts reach dependents; diagnostics are only reported for packages
//     in the deterministic set. Diagnostics exit 2, matching vet.
//
// Packages outside the deterministic set (examples/, cmd/, tools/, the
// registry root) contribute facts but no diagnostics: the determinism
// contract binds the simulator core, not demo or tooling code.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"riseandshine/tools/analyzers/analysis"
	"riseandshine/tools/analyzers/atomicaccess"
	"riseandshine/tools/analyzers/congestmsg"
	"riseandshine/tools/analyzers/ctxretain"
	"riseandshine/tools/analyzers/detrand"
	"riseandshine/tools/analyzers/globalwrite"
	"riseandshine/tools/analyzers/load"
	"riseandshine/tools/analyzers/maporder"
	"riseandshine/tools/analyzers/noalloc"
)

// suite is the full wakeuplint analyzer set, applied in order.
var suite = []*analysis.Analyzer{
	detrand.Analyzer,
	maporder.Analyzer,
	congestmsg.Analyzer,
	noalloc.Analyzer,
	atomicaccess.Analyzer,
	globalwrite.Analyzer,
	ctxretain.Analyzer,
}

// deterministicPrefixes lists the import paths bound by the determinism
// contract; subpackages inherit it.
var deterministicPrefixes = []string{
	"riseandshine/internal/sim",
	"riseandshine/internal/core",
	"riseandshine/internal/experiment",
	"riseandshine/internal/exectrace",
	"riseandshine/internal/graph",
	"riseandshine/internal/metrics",
}

// relevant reports whether a package import path is inside the
// deterministic set. Vet hands test variants as "path [path.test]"; the
// variant analyzes the same non-test files plus test files, which the
// analyzers themselves exempt.
func relevant(importPath string) bool {
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i]
	}
	for _, p := range deterministicPrefixes {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-flags":
		// The go command probes for tool-specific flags; we define none.
		fmt.Println("[]")
	case len(args) >= 1 && strings.HasPrefix(args[0], "-V"):
		printVersion()
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(vetMode(args[0]))
	default:
		os.Exit(standalone(args, os.Stdout, os.Stderr))
	}
}

// printVersion emits the version line the go command fingerprints for
// build caching: the name plus a content hash of the executable, so
// rebuilding the tool invalidates cached vet results.
func printVersion() {
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel buildID=%x\n", filepath.Base(os.Args[0]), h.Sum(nil))
}

// parseArgs splits standalone arguments into flags and package patterns.
// Returned list=true means print the suite and exit; active is the
// selected analyzer subset.
func parseArgs(args []string) (active []*analysis.Analyzer, patterns []string, list bool, err error) {
	active = suite
	for _, arg := range args {
		switch {
		case arg == "-list" || arg == "--list":
			list = true
		case strings.HasPrefix(arg, "-only=") || strings.HasPrefix(arg, "--only="):
			names := arg[strings.Index(arg, "=")+1:]
			if active, err = selectAnalyzers(names); err != nil {
				return nil, nil, false, err
			}
		case strings.HasPrefix(arg, "-"):
			return nil, nil, false, fmt.Errorf("unknown flag %s (have -list, -only=<a,b,…>)", arg)
		default:
			patterns = append(patterns, arg)
		}
	}
	return active, patterns, list, nil
}

// selectAnalyzers resolves a comma-separated -only value against the suite.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers")
	}
	return out, nil
}

// listAnalyzers prints one line per analyzer.
func listAnalyzers(w io.Writer) {
	for _, a := range suite {
		fmt.Fprintf(w, "%-14s %s\n", a.Name, a.Doc)
	}
}

// diag is one rendered diagnostic.
type diag struct {
	analyzer string
	pos      token.Position
	msg      string
}

// runAnalyzers applies the active analyzers to one type-checked package,
// threading facts through the given set.
func runAnalyzers(active []*analysis.Analyzer, facts *analysis.FactSet, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]diag, error) {
	var out []diag
	for _, a := range active {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analysis.Diagnostic) {
				out = append(out, diag{analyzer: a.Name, pos: fset.Position(d.Pos), msg: d.Message})
			},
		}
		facts.Bind(pass)
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.pos.Column < b.pos.Column
	})
	return out, nil
}

// standalone analyzes the packages matched by the given patterns (default
// ./...) relative to the current directory, plus their in-module
// dependencies for fact computation.
func standalone(args []string, stdout, stderr io.Writer) int {
	active, patterns, list, err := parseArgs(args)
	if err != nil {
		fmt.Fprintf(stderr, "wakeuplint: %v\n", err)
		return 1
	}
	if list {
		listAnalyzers(stdout)
		return 0
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "wakeuplint: %v\n", err)
		return 1
	}
	pkgs, err := load.Packages(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "wakeuplint: %v\n", err)
		return 1
	}
	facts := analysis.NewFactSet(active)
	found := 0
	for _, p := range pkgs {
		report := relevant(p.ImportPath) && !p.DepOnly
		if len(p.TypeErrors) > 0 {
			if report {
				fmt.Fprintf(stderr, "wakeuplint: %s: %v\n", p.ImportPath, p.TypeErrors[0])
				return 1
			}
			continue // best-effort: an unrelated package may not type-check
		}
		diags, err := runAnalyzers(active, facts, p.Fset, p.Files, p.Types, p.TypesInfo)
		if err != nil {
			fmt.Fprintf(stderr, "wakeuplint: %v\n", err)
			return 1
		}
		if !report {
			continue // dependency analyzed for facts only
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s\n", d.pos, d.msg)
			found++
		}
	}
	if found > 0 {
		return 1
	}
	return 0
}

// vetConfig mirrors the subset of the go command's vet.cfg JSON the tool
// consumes.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
	// Standard is the set of standard-library import paths.
	Standard map[string]bool
}

// vetMode handles one unitchecker invocation: read the cfg, decode the
// fact files of every import, analyze the package (module packages are
// analyzed even when VetxOnly — their facts feed dependents), write the
// accumulated facts to VetxOutput, and report diagnostics only for
// packages in the deterministic set.
func vetMode(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wakeuplint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "wakeuplint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	writeVetx := func(facts *analysis.FactSet) int {
		if cfg.VetxOutput == "" {
			return 0
		}
		var out []byte
		if facts != nil {
			if out, err = facts.Encode(); err != nil {
				fmt.Fprintf(os.Stderr, "wakeuplint: %v\n", err)
				return 1
			}
		}
		if err := os.WriteFile(cfg.VetxOutput, out, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "wakeuplint: %v\n", err)
			return 1
		}
		return 0
	}
	if cfg.Standard[strings.TrimSuffix(cfg.ImportPath, " [std]")] {
		// Standard-library facts would never fire on repo contracts; skip
		// the (large) parse and emit an empty fact set.
		return writeVetx(nil)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(nil)
			}
			fmt.Fprintf(os.Stderr, "wakeuplint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}
	// Resolve imports through the compiled export data the go command
	// already built: ImportMap canonicalizes source import paths,
	// PackageFile locates each canonical package's export file.
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var softErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, cfg.Compiler, lookup),
		Error:    func(err error) { softErrs = append(softErrs, err) },
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if pkg == nil || len(softErrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(nil)
		}
		if err == nil && len(softErrs) > 0 {
			err = softErrs[0]
		}
		fmt.Fprintf(os.Stderr, "wakeuplint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	// Decode the facts every import's unitchecker run serialized. Encode
	// re-exports the union, so direct imports carry the whole closure.
	facts := analysis.NewFactSet(suite)
	for _, path := range sortedKeys(cfg.PackageVetx) {
		data, err := os.ReadFile(cfg.PackageVetx[path])
		if err != nil {
			fmt.Fprintf(os.Stderr, "wakeuplint: reading facts of %s: %v\n", path, err)
			return 1
		}
		if err := facts.Decode(data); err != nil {
			fmt.Fprintf(os.Stderr, "wakeuplint: facts of %s: %v\n", path, err)
			return 1
		}
	}

	diags, err := runAnalyzers(suite, facts, fset, files, pkg, info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wakeuplint: %v\n", err)
		return 1
	}
	if code := writeVetx(facts); code != 0 {
		return code
	}
	if cfg.VetxOnly || !relevant(cfg.ImportPath) {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.pos, d.msg)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// sortedKeys returns m's keys in deterministic order.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
