// The test-only API guard. Exported internal/ declarations are the seams one
// part of SpotDC offers another; one that no product code calls is code the
// binaries carry, the docs describe and reviewers read for the tests' sake
// alone. TestNoTestOnlyAPI type-checks every non-test file of this module and
// of the bench/ harness module and fails on each exported internal/
// declaration none of them references, unless its doc comment says why a
// test needs it with a "// testhook: <reason>" line.
package spotdc_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// srcPackage is one package type-checked from its non-test source.
type srcPackage struct {
	Path  string // import path
	Dir   string
	Files []string // non-test .go files, relative to Dir
}

// listedPackage is the part of `go list -json` the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList lists the packages ./... in dir depends on, dependencies first,
// with the compiler export data of each.
func goList(t *testing.T, goTool, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command(goTool, "list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// sourceImporter resolves the packages checked so far from source and
// everything else through std.
type sourceImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (s sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	return s.std.Import(path)
}

// testOnlyAPI type-checks pkgs (dependencies first; standard-library
// imports come from their export data files) and returns, by qualified
// name, the position of each exported declaration in a package whose
// import path starts with internalPrefix that no file of pkgs references
// and whose doc comment has no testhook line.
//
// A method also counts as referenced when its type implements an interface
// that declares it and either that interface's method is called somewhere
// in pkgs (tenant.Agent, core.DemandFunc) or the interface is declared by an
// imported standard-library package (fmt.Stringer, error, io.Writer), whose
// code calls it.
func testOnlyAPI(exports map[string]string, pkgs []srcPackage, internalPrefix string) (map[string]token.Position, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := sourceImporter{checked: map[string]*types.Package{}, std: std}
	used := map[types.Object]bool{}
	type decl struct {
		obj    types.Object
		recv   *types.Named // nil unless a method
		hooked bool
	}
	var decls []decl
	for _, sp := range pkgs {
		var files []*ast.File
		for _, name := range sp.Files {
			f, err := parser.ParseFile(fset, filepath.Join(sp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(sp.Path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", sp.Path, err)
		}
		imp.checked[sp.Path] = pkg
		for _, obj := range info.Uses {
			used[obj] = true
		}
		if !strings.HasPrefix(sp.Path, internalPrefix) {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := info.Defs[d.Name].(*types.Func)
					var recv *types.Named
					if r := fn.Type().(*types.Signature).Recv(); r != nil {
						t := r.Type()
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						recv = t.(*types.Named)
						if !recv.Obj().Exported() {
							continue
						}
					}
					decls = append(decls, decl{fn, recv, hasTesthook(d.Doc)})
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						doc := d.Doc
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
							if s.Doc != nil {
								doc = s.Doc
							}
						case *ast.ValueSpec:
							names = s.Names
							if s.Doc != nil {
								doc = s.Doc
							}
						}
						for _, n := range names {
							if n.IsExported() {
								decls = append(decls, decl{info.Defs[n], nil, hasTesthook(doc)})
							}
						}
					}
				}
			}
		}
	}

	// Interfaces that reach methods: those whose methods are called, and
	// those the imported standard library declares.
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	for obj := range used {
		if fn, ok := obj.(*types.Func); ok {
			if r := fn.Type().(*types.Signature).Recv(); r != nil {
				if it, ok := r.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, ours := imp.checked[p.Path()]; !ours {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range imp.checked {
		walk(p)
	}
	reached := func(d decl) bool {
		for _, it := range ifaces[d.obj.Name()] {
			if types.Implements(d.recv, it) || types.Implements(types.NewPointer(d.recv), it) {
				return true
			}
		}
		return false
	}

	hits := map[string]token.Position{}
	for _, d := range decls {
		if d.hooked || used[d.obj] || (d.recv != nil && reached(d)) {
			continue
		}
		name := d.obj.Name()
		if d.recv != nil {
			name = d.recv.Obj().Name() + "." + name
		}
		hits[d.obj.Pkg().Path()+"."+name] = fset.Position(d.obj.Pos())
	}
	return hits, nil
}

// hasTesthook reports whether a doc comment carries a "// testhook:" line
// (gofmt's spelling of "//testhook:").
func hasTesthook(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "testhook:") {
			return true
		}
	}
	return false
}

func TestNoTestOnlyAPI(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	exports := map[string]string{}
	var pkgs []srcPackage
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		for _, p := range goList(t, goTool, dir) {
			switch {
			case p.Standard:
				exports[p.ImportPath] = p.Export
			case !seen[p.ImportPath] && len(p.GoFiles) > 0:
				seen[p.ImportPath] = true
				pkgs = append(pkgs, srcPackage{p.ImportPath, p.Dir, p.GoFiles})
			}
		}
	}

	// The fixture must trip the scan on exactly its two unreferenced
	// exports; its annotated hook, its interface-reached method and its
	// fmt.Stringer are not hits.
	fixture := filepath.Join("testdata", "testonlyapi")
	hits, err := testOnlyAPI(exports, []srcPackage{
		{"fixture/internal/lib", filepath.Join(fixture, "internal", "lib"), []string{"lib.go"}},
		{"fixture/app", filepath.Join(fixture, "app"), []string{"app.go"}},
	}, "fixture/internal/")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(hits), "fixture/internal/lib.Shape.Perimeter fixture/internal/lib.Unused"; got != want {
		t.Fatalf("fixture hits = %q, want %q", got, want)
	}

	if hits, err = testOnlyAPI(exports, pkgs, "spotdc/internal/"); err != nil {
		t.Fatal(err)
	}
	for _, name := range strings.Fields(sortedKeys(hits)) {
		t.Errorf("%s: %s is exported but only tests use it: delete it, make it unexported, or give its doc a `// testhook: <reason>` line", hits[name], name)
	}
}

// sortedKeys joins the hits' names, sorted, with spaces.
func sortedKeys(hits map[string]token.Position) string {
	names := make([]string, 0, len(hits))
	for name := range hits {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}
