package engine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// seamOwners are the module-relative directories allowed to construct
// engine runners: the seam itself and the one runner over the flat kernel.
var seamOwners = []string{"internal/engine", "internal/event"}

// seamCalls are the constructors only the seam may call, by import path.
var seamCalls = map[string][]string{
	"snappif/internal/flat":  {"FromCore"},
	"snappif/internal/event": {"NewRunner"},
}

// engineNames are the literals a caller would switch on to pick an engine
// itself instead of asking the seam.
var engineNames = []string{`"sim"`, `"flat"`, `"event"`, `"generic"`}

// TestSeamIsTheOnlyEngineBuilder parses every non-test Go file of the
// repository outside the seam's owners and fails on a call to an engine
// constructor or a switch case on an engine name: runners are built by
// engine.New alone.
func TestSeamIsTheOnlyEngineBuilder(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && path != root) {
				return filepath.SkipDir
			}
			for _, owner := range seamOwners {
				if rel == owner {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		checked++
		for _, v := range seamViolations(fset, f) {
			t.Errorf("%s:%s", rel, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("walked only %d files from %s; the scan is not covering the repository", checked, root)
	}
}

// seamViolations lists f's engine-constructor calls and engine-name cases.
func seamViolations(fset *token.FileSet, f *ast.File) []string {
	// Local name → import path, for the engine packages f imports.
	local := make(map[string]string)
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if _, ok := seamCalls[path]; !ok {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = path
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			path, ok := local[pkg.Name]
			if !ok {
				return true
			}
			for _, fn := range seamCalls[path] {
				if sel.Sel.Name == fn {
					out = append(out, lineCol(fset, n.Pos())+": calls "+pkg.Name+"."+fn+"; build runners with engine.New")
				}
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				lit, ok := e.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				for _, name := range engineNames {
					if lit.Value == name {
						out = append(out, lineCol(fset, lit.Pos())+": switches on engine name "+name+"; validate with engine.Validate and build with engine.New")
					}
				}
			}
		}
		return true
	})
	return out
}

// lineCol renders pos as "line:col".
func lineCol(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Column)
}

// TestSeamViolationsDetected: the scanner itself finds every forbidden
// form, aliased imports included, and accepts the seam's own idiom.
func TestSeamViolationsDetected(t *testing.T) {
	src := `package p

import (
	"snappif/internal/event"
	fl "snappif/internal/flat"
	"snappif/internal/engine"
)

func f(name string) {
	k, _ := fl.FromCore(nil)
	_, _ = event.NewRunner(nil, k, nil, event.Options{})
	switch name {
	case "flat":
	}
	_, _ = engine.New(engine.Spec{Engine: name})
	_, _ = event.ParseLatency("const:1")
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := seamViolations(fset, f)
	if len(got) != 3 {
		t.Fatalf("found %d violations, want 3 (FromCore, NewRunner, case \"flat\"):\n%s", len(got), strings.Join(got, "\n"))
	}
}

// moduleRoot walks up from the test's directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
