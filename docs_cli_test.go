package automdt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// cliFlags maps each binary under cmd/ to its subcommands, and each
// subcommand to the flags it defines. A binary's own flags, on the
// global flag set, sit under the subcommand "".
type cliFlags map[string]map[string]map[string]bool

// flagDefiners are the flag.FlagSet methods (and flag package functions)
// that define a flag; the first string literal among their arguments is
// the flag's name.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// TestDocsCLIFlags fails when a command line quoted in the docs, the
// verify skill or a CI workflow runs a binary under cmd/ with a
// subcommand or a flag that the binary's source does not define. It
// reads the binaries with go/parser alone: a flag belongs to the
// subcommand whose flag.NewFlagSet defines it, directly or through a
// helper the set is passed to.
func TestDocsCLIFlags(t *testing.T) {
	cli, err := parseCLIFlags("cmd")
	if err != nil {
		t.Fatal(err)
	}
	// The parse must see what the binaries define, or every check
	// below passes for nothing.
	for _, want := range [][3]string{
		{"automdt-xfer", "serve", "addr"}, {"automdt-xfer", "send", "addr"},
		{"automdt-xfer", "send", "chunk"}, {"automdt-xfer", "ledger", "compact"},
		{"automdt-daemon", "", "fleet"},
	} {
		if !cli[want[0]][want[1]][want[2]] {
			t.Fatalf("parsed %s %s defines no -%s; the flag parse is broken: %v", want[0], want[1], want[2], cli[want[0]])
		}
	}

	t.Run("planted", func(t *testing.T) {
		planted := "Start `automdt-xfer serve -addr :9000 -data :9001`, then\n" +
			"```sh\n/tmp/automdt-xfer recv -addr :9000\nautomdt-daemon -fleet 3 \\\n    -no-such-flag 1 | tee log\n```\n"
		got, n := cliMentionErrors(planted, true, cli)
		want := []string{
			"automdt-xfer serve: unknown flag -data",
			"automdt-xfer: unknown subcommand recv",
			"automdt-daemon: unknown flag -no-such-flag",
		}
		if !reflect.DeepEqual(got, want) || n != 3 {
			t.Fatalf("planted text: checker reports %q over %d command lines, want %q over 3", got, n, want)
		}
	})

	files := append(docFiles(t), filepath.Join(".claude", "skills", "verify", "SKILL.md"))
	workflows, err := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if err != nil || len(workflows) == 0 {
		t.Fatalf("no CI workflows found (%v)", err)
	}
	files = append(files, workflows...)
	checked := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		errs, n := cliMentionErrors(string(raw), strings.HasSuffix(f, ".md"), cli)
		checked += n
		for _, e := range errs {
			t.Errorf("%s: %s", f, e)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d command lines found across %d files; the scan is broken", checked, len(files))
	}
}

// parseCLIFlags reads every binary under root (one directory each) and
// returns the flags each of its subcommands defines.
func parseCLIFlags(root string) (cliFlags, error) {
	dirs, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	out := cliFlags{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join(root, d.Name()),
			func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			return nil, err
		}
		funcs := map[string]*ast.FuncDecl{}
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Body != nil {
						funcs[fd.Name.Name] = fd
					}
				}
			}
		}
		subs := map[string]map[string]bool{}
		add := func(sub string, names []string) {
			if subs[sub] == nil {
				subs[sub] = map[string]bool{}
			}
			for _, n := range names {
				subs[sub][n] = true
			}
		}
		for _, fd := range funcs {
			if names := flagsOn(fd, "flag", funcs, 0); len(names) > 0 {
				add("", names)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				id, isIdent := as.Lhs[0].(*ast.Ident)
				if sub, ok := newFlagSetName(as.Rhs[0]); ok && isIdent {
					add(sub, flagsOn(fd, id.Name, funcs, 0))
				}
				return true
			})
		}
		out[d.Name()] = subs
	}
	return out, nil
}

// newFlagSetName reports the name in a flag.NewFlagSet("name", …) call.
func newFlagSetName(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewFlagSet" {
		return "", false
	}
	if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
		return "", false
	}
	return stringLit(call.Args[0])
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// flagsOn returns the names of the flags fd defines on the flag set that
// the identifier set names, following the set into the functions of
// funcs it is passed to.
func flagsOn(fd *ast.FuncDecl, set string, funcs map[string]*ast.FuncDecl, depth int) []string {
	var names []string
	if depth > 4 {
		return nil
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && flagDefiners[sel.Sel.Name] {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == set {
				for _, a := range call.Args {
					if name, ok := stringLit(a); ok {
						names = append(names, name)
						break
					}
				}
			}
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || funcs[fn.Name] == nil {
			return true
		}
		callee := funcs[fn.Name]
		var params []string
		for _, field := range callee.Type.Params.List {
			for _, p := range field.Names {
				params = append(params, p.Name)
			}
		}
		for i, a := range call.Args {
			if x, ok := a.(*ast.Ident); ok && x.Name == set && i < len(params) {
				names = append(names, flagsOn(callee, params[i], funcs, depth+1)...)
			}
		}
		return true
	})
	return names
}

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	flagToken  = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(=.*)?$`)
	bareWord   = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
)

// cliMentionErrors checks every command line in text that runs a binary
// of cli: in markdown only code (fenced blocks and inline spans) counts,
// elsewhere all of the text. It returns one error per unknown subcommand
// or flag, and the number of command lines it checked.
func cliMentionErrors(text string, markdown bool, cli cliFlags) (errs []string, lines int) {
	var code []string
	if markdown {
		for i, part := range strings.Split(text, "```") {
			if i%2 == 1 {
				code = append(code, part)
				continue
			}
			for _, m := range inlineCode.FindAllStringSubmatch(part, -1) {
				code = append(code, strings.ReplaceAll(m[1], "\n", " "))
			}
		}
	} else {
		code = []string{text}
	}
	for _, c := range code {
		for _, line := range strings.Split(strings.ReplaceAll(c, "\\\n", " "), "\n") {
			fields := strings.Fields(line)
			for i, f := range fields {
				bin := ""
				for b := range cli {
					if f == b || strings.HasSuffix(f, "/"+b) {
						bin = b
					}
				}
				if bin == "" {
					continue
				}
				lines++
				errs = append(errs, checkCommand(bin, fields[i+1:], cli[bin])...)
			}
		}
	}
	return errs, lines
}

// checkCommand checks the arguments after a binary's name, up to the
// first shell operator, against the subcommands and flags it defines.
func checkCommand(bin string, args []string, subs map[string]map[string]bool) []string {
	var errs []string
	sub, haveSub := "", len(subs) > 0 && subs[""] == nil
	for _, a := range args {
		if strings.ContainsAny(a[:1], "|&;<>#)") || strings.Contains(a, "2>") {
			break
		}
		if m := flagToken.FindStringSubmatch(a); m != nil {
			if !subs[sub][m[1]] {
				errs = append(errs, strings.TrimSpace(bin+" "+sub)+": unknown flag -"+m[1])
			}
			continue
		}
		if !haveSub {
			continue // a flag's value or a positional argument
		}
		haveSub = false
		if !bareWord.MatchString(a) {
			break // a path or a placeholder, not a command line
		}
		if subs[a] == nil {
			errs = append(errs, bin+": unknown subcommand "+a)
			break
		}
		sub = a
	}
	return errs
}
