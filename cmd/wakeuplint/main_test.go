package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseArgs(t *testing.T) {
	tests := []struct {
		name     string
		args     []string
		wantList bool
		active   []string // expected analyzer names; nil means the full suite
		patterns []string
		wantErr  string
	}{
		{name: "empty", args: nil},
		{name: "list", args: []string{"-list"}, wantList: true},
		{name: "list double dash", args: []string{"--list"}, wantList: true},
		{name: "only one", args: []string{"-only=noalloc"}, active: []string{"noalloc"}},
		{name: "only several", args: []string{"--only=detrand,maporder"}, active: []string{"detrand", "maporder"}},
		{name: "only spaces", args: []string{"-only= noalloc , detrand "}, active: []string{"noalloc", "detrand"}},
		{name: "patterns", args: []string{"./internal/...", "./cmd/..."}, patterns: []string{"./internal/...", "./cmd/..."}},
		{name: "flags and patterns", args: []string{"-only=globalwrite", "./..."}, active: []string{"globalwrite"}, patterns: []string{"./..."}},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: "unknown flag"},
		{name: "unknown analyzer", args: []string{"-only=nosuch"}, wantErr: `unknown analyzer "nosuch"`},
		{name: "only empty", args: []string{"-only="}, wantErr: "selected no analyzers"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			active, patterns, list, err := parseArgs(tt.args)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("parseArgs(%q) error = %v, want containing %q", tt.args, err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%q): %v", tt.args, err)
			}
			if list != tt.wantList {
				t.Errorf("list = %v, want %v", list, tt.wantList)
			}
			want := tt.active
			if want == nil {
				for _, a := range suite {
					want = append(want, a.Name)
				}
			}
			var got []string
			for _, a := range active {
				got = append(got, a.Name)
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("active = %v, want %v", got, want)
			}
			if strings.Join(patterns, " ") != strings.Join(tt.patterns, " ") {
				t.Errorf("patterns = %v, want %v", patterns, tt.patterns)
			}
		})
	}
}

func TestListAnalyzers(t *testing.T) {
	var buf bytes.Buffer
	listAnalyzers(&buf)
	out := buf.String()
	for _, name := range []string{"detrand", "maporder", "congestmsg", "noalloc", "atomicaccess", "globalwrite", "ctxretain"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out)
		}
	}
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != len(suite) {
		t.Errorf("-list printed %d lines, want %d", got, len(suite))
	}
}

func TestStandaloneFlagHandling(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := standalone([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Fatalf("standalone -list = %d, want 0 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "noalloc") {
		t.Errorf("standalone -list output missing noalloc:\n%s", out.String())
	}
	out.Reset()
	errBuf.Reset()
	if code := standalone([]string{"-frobnicate"}, &out, &errBuf); code != 1 {
		t.Fatalf("standalone with unknown flag = %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "unknown flag") {
		t.Errorf("stderr = %q, want unknown-flag error", errBuf.String())
	}
}

func TestRelevant(t *testing.T) {
	tests := []struct {
		path string
		want bool
	}{
		{"riseandshine/internal/sim", true},
		{"riseandshine/internal/sim/subpkg", true},
		{"riseandshine/internal/simx", false},
		{"riseandshine/internal/graph", true},
		{"riseandshine/internal/core [riseandshine/internal/core.test]", true},
		{"riseandshine/examples/spanner", false},
		{"riseandshine/tools/analyzers/noalloc", false},
		{"fmt", false},
	}
	for _, tt := range tests {
		if got := relevant(tt.path); got != tt.want {
			t.Errorf("relevant(%q) = %v, want %v", tt.path, got, tt.want)
		}
	}
}

// listedPackage is the slice of `go list -export -deps -json` output the
// vet.cfg test needs to assemble export-data tables.
type listedPackage struct {
	ImportPath string
	Export     string
	Standard   bool
}

// TestVetConfigPath drives vetMode through handwritten vet.cfg files, the
// way the go command does, and checks that facts serialized by one unit
// (a wrapper package outside the deterministic set) change the verdict of
// a later unit: the caller's diagnostic exists only because of the
// cross-package Tainted fact.
func TestVetConfigPath(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available")
	}
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("go.mod", "module example.com\n\ngo 1.22\n")
	wrapGo := write("wrap/wrap.go", `package wrap

import "time"

// WallClock reads the wall clock.
func WallClock() int64 { return time.Now().UnixNano() }

// Stamp is tainted only transitively, through WallClock.
func Stamp() int64 { return WallClock() + 1 }
`)
	callerGo := write("caller/caller.go", `package caller

import "example.com/wrap"

// Use calls the transitively tainted wrapper from another package: only
// the serialized Tainted fact can reveal this.
func Use() int64 { return wrap.Stamp() }
`)

	// Build export data for the temp module and its std dependencies.
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export,Standard", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	packageFile := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
	}
	if packageFile["example.com/wrap"] == "" {
		t.Fatalf("go list produced no export data for example.com/wrap (have %v)", packageFile)
	}

	runUnit := func(name string, cfg vetConfig) (int, string) {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfgPath := write(name+"/vet.cfg", string(data))
		// vetMode reports to os.Stderr; capture it.
		old := os.Stderr
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stderr = w
		code := vetMode(cfgPath)
		w.Close()
		os.Stderr = old
		var buf bytes.Buffer
		buf.ReadFrom(r)
		return code, buf.String()
	}

	// Unit 1: the wrapper package. Outside the deterministic set, so its
	// own direct time.Now diagnostic must not be reported — but its facts
	// must land in the vetx file.
	wrapVetx := filepath.Join(dir, "wrap.vetx")
	code, stderr := runUnit("u1", vetConfig{
		ID:          "example.com/wrap",
		Compiler:    "gc",
		Dir:         dir,
		ImportPath:  "example.com/wrap",
		GoFiles:     []string{wrapGo},
		ImportMap:   map[string]string{"time": "time"},
		PackageFile: packageFile,
		VetxOutput:  wrapVetx,
	})
	if code != 0 {
		t.Fatalf("wrap unit exited %d, want 0; stderr:\n%s", code, stderr)
	}
	vetx, err := os.ReadFile(wrapVetx)
	if err != nil {
		t.Fatalf("wrap unit wrote no vetx: %v", err)
	}
	if !bytes.Contains(vetx, []byte("Tainted")) {
		t.Fatalf("wrap vetx carries no Tainted facts:\n%s", vetx)
	}

	// Unit 2: the caller, masquerading as a deterministic-set package. Its
	// only entropy exposure is the imported wrapper, so the diagnostic
	// proves the fact survived serialization.
	code, stderr = runUnit("u2", vetConfig{
		ID:          "riseandshine/internal/sim",
		Compiler:    "gc",
		Dir:         dir,
		ImportPath:  "riseandshine/internal/sim",
		GoFiles:     []string{callerGo},
		ImportMap:   map[string]string{"example.com/wrap": "example.com/wrap"},
		PackageFile: packageFile,
		PackageVetx: map[string]string{"example.com/wrap": wrapVetx},
		VetxOutput:  filepath.Join(dir, "caller.vetx"),
	})
	if code != 2 {
		t.Fatalf("caller unit exited %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "wrap.Stamp is tainted") || !strings.Contains(stderr, "WallClock → time.Now") {
		t.Fatalf("caller diagnostic missing taint chain:\n%s", stderr)
	}

	// Control: without the wrapper's facts the caller looks clean — the
	// diagnostic above genuinely depends on fact propagation.
	code, stderr = runUnit("u3", vetConfig{
		ID:          "riseandshine/internal/sim",
		Compiler:    "gc",
		Dir:         dir,
		ImportPath:  "riseandshine/internal/sim",
		GoFiles:     []string{callerGo},
		ImportMap:   map[string]string{"example.com/wrap": "example.com/wrap"},
		PackageFile: packageFile,
		VetxOutput:  filepath.Join(dir, "control.vetx"),
	})
	if code != 0 {
		t.Fatalf("control unit exited %d, want 0; stderr:\n%s", code, stderr)
	}
}
