package automdt

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The scan's size bounds: the Go files it parses, and their bytes. When
// they were set, with go1.24, the scan parsed 142 files of 1.99 MB: 94
// files (0.64 MB) of the module and the benchmark, the rest the
// standard-library files that declare interfaces. The bounds leave about
// twice that, room for the module to grow, and a scan that strays into a
// tree it has no business in overruns them at once. They bound work the
// host cannot stretch: a wall-clock bound failed on a loaded machine.
const (
	maxScanFiles = 300
	maxScanBytes = 4 << 20
)

// reservedExports are the exports under internal/ that nothing calls yet
// but a named ROADMAP item will, each with that item's number. Nothing
// else may sit here: an export the benchmark calls already has a caller.
var reservedExports = map[string]int{
	"chaos.Link.SetClock":      6,  // the deterministic simulator's virtual clock
	"transfer.NewProbeSession": 22, // the live §IV-A probe
}

// TestEveryExportHasACaller fails on an exported top-level function or
// method under internal/ that no non-test file of the module or of
// benchmark/ names. Matching is by name, from go/parser alone: a
// function must be named through its package (or inside it), a method
// by a selector anywhere, and a method that an interface of the module
// or of an imported standard-library package names is skipped.
func TestEveryExportHasACaller(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		got, _, err := uncalledExports("testdata/exportguard", "planted")
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"a.Unused"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("planted tree: guard reports %v, want %v", got, want)
		}
	})

	dead, size, err := uncalledExports(".", "automdt", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	if size.files > maxScanFiles || size.bytes > maxScanBytes {
		t.Errorf("the scan parsed %d files of %d bytes; it must stay within %d files and %d bytes", size.files, size.bytes, maxScanFiles, maxScanBytes)
	}
	reported := map[string]bool{}
	for _, name := range dead {
		reported[name] = true
		if _, ok := reservedExports[name]; !ok {
			t.Errorf("%s has no non-test caller: delete it, or move it into its package's export_test.go if only tests use it", name)
		}
	}
	for name, item := range reservedExports {
		if !reported[name] {
			t.Errorf("reserved export %s (ROADMAP %d) now has a caller or is gone: drop it from reservedExports", name, item)
		}
	}
}

// scanSize counts the Go files a scan parsed, and their bytes.
type scanSize struct {
	files int
	bytes int64
}

// uncalledExports parses the non-test Go files of the module mod rooted
// at root and of the caller directories below root, and lists, as
// pkg.Func or pkg.Type.Method with pkg relative to internal/, every
// export declared under internal/ that none of those files names. A
// directory with its own go.mod, or named testdata, is not part of mod.
// size counts every file parsed, the standard library's among them.
func uncalledExports(root, mod string, callerDirs ...string) (dead []string, size scanSize, err error) {
	type export struct{ key, method, name string }
	var (
		fset     = token.NewFileSet()
		internal = mod + "/internal/"
		decls    []export
		uses     = map[string]bool{} // import path + "." + name
		selected = map[string]bool{} // names after a dot that is not a package qualifier
		iface    = map[string]bool{} // method names some interface declares
		std      = map[string]bool{"builtin": true}
	)
	parse := func(name string, src []byte) (*ast.File, error) {
		size.files++
		size.bytes += int64(len(src))
		return parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	}
	addIface := func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			for _, m := range it.Methods.List {
				for _, name := range m.Names {
					iface[name.Name] = true
				}
			}
		}
		return true
	}
	// addFile records what f declares under internal/ (pkg is f's import
	// path, empty outside mod) and every name it uses.
	addFile := func(f *ast.File, pkg string) {
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
			if !strings.Contains(strings.Split(p, "/")[0], ".") && !strings.HasPrefix(p+"/", mod+"/") {
				std[p] = true
			}
		}
		self := "" // the top-level function being walked: calling itself is no use
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if rel, ok := strings.CutPrefix(pkg, internal); ok && n.Name.IsExported() {
					e := export{key: pkg + "." + n.Name.Name, name: rel + "." + n.Name.Name}
					if n.Recv != nil {
						e.method, e.name = n.Name.Name, rel+"."+recvName(n.Recv.List[0].Type)+"."+n.Name.Name
					}
					decls = append(decls, e)
				}
				if n.Recv == nil {
					self = n.Name.Name
				} else {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				self = ""
				return false
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
					uses[imports[id.Name]+"."+n.Sel.Name] = true
					return false
				}
				selected[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if n.Name != self {
					uses[pkg+"."+n.Name] = true
				}
			}
			return addIface(n)
		}
		for _, decl := range f.Decls {
			ast.Inspect(decl, visit)
		}
	}
	parseTree := func(dir string, inMod bool) error {
		return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || p == dir {
				return err
			}
			if d.IsDir() {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			f, err := parse(p, src)
			if err != nil {
				return err
			}
			pkg := ""
			if inMod {
				rel, _ := filepath.Rel(dir, filepath.Dir(p))
				pkg = path.Join(mod, filepath.ToSlash(rel))
			}
			addFile(f, pkg)
			return nil
		})
	}
	if err := parseTree(root, true); err != nil {
		return nil, size, err
	}
	for _, dir := range callerDirs {
		if err := parseTree(filepath.Join(root, dir), false); err != nil {
			return nil, size, err
		}
	}
	// The interfaces of the imported standard-library packages. gofmt
	// writes a non-empty interface as "interface {" or, on one line,
	// "interface{ M() }": a file with neither declares none, and is not
	// parsed.
	for p := range std {
		files, _ := filepath.Glob(filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(p), "*.go"))
		for _, name := range files {
			b, err := os.ReadFile(name)
			if err != nil {
				return nil, size, err
			}
			if strings.HasSuffix(name, "_test.go") || !bytes.Contains(b, []byte("interface {")) && !bytes.Contains(b, []byte("interface{ ")) {
				continue
			}
			f, err := parse(name, b)
			if err != nil {
				return nil, size, err
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					ast.Inspect(gd, addIface)
				}
			}
		}
	}
	for _, e := range decls {
		if e.method == "" && !uses[e.key] || e.method != "" && !selected[e.method] && !iface[e.method] {
			dead = append(dead, e.name)
		}
	}
	sort.Strings(dead)
	return dead, size, nil
}

// recvName is the receiver's type name without pointer or type parameters.
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
