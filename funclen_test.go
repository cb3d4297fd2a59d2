package automdt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// maxEngineFuncLines bounds every function of the engine's two session
// files. A session is a set of stages, each a method over the session's
// fields; a function past this bound is several stages run as one, with
// the state they share held in locals that no other stage can name.
const maxEngineFuncLines = 150

// TestEngineFunctionsStayShort fails on any function in the transfer
// engine's sender.go or receiver.go longer than maxEngineFuncLines,
// counted from its func keyword to its closing brace, function literals
// inside it included.
func TestEngineFunctionsStayShort(t *testing.T) {
	fset := token.NewFileSet()
	for _, name := range []string{"sender.go", "receiver.go"} {
		p := filepath.Join("internal", "transfer", name)
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			if lines <= maxEngineFuncLines {
				continue
			}
			fname := fn.Name.Name
			if fn.Recv != nil {
				fname = recvName(fn.Recv.List[0].Type) + "." + fname
			}
			t.Errorf("%s: %s is %d lines, more than %d: split it into stages", p, fname, lines, maxEngineFuncLines)
		}
	}
}
