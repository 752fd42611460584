// The docs-flags guard. A `go run ./cmd/spotdc-*` command in the docs that
// passes a flag the binary does not define exits with "flag provided but
// not defined", so a reader copying it gets nothing. TestDocsUseDefinedFlags
// reads each binary's flag names from its main.go and fails on every
// documented command that uses another.
package spotdc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// definedFlags returns the flags a command's main.go defines through the
// standard flag package: flag.X("name", ...) and flag.XVar(&v, "name", ...).
// -h and -help are always defined.
func definedFlags(t *testing.T, mainFile string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), mainFile, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{"h": true, "help": true}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				flags[name] = true
			}
		}
		return true
	})
	return flags
}

// goRunCmd finds a documented binary invocation; the arguments run to the
// end of the line, a closing backtick, or a shell operator.
var goRunCmd = regexp.MustCompile("go run \\./cmd/(spotdc-[a-z]+)([^`]*)")

// usedFlags returns the flag names among a command line's arguments.
func usedFlags(args string) []string {
	var flags []string
	for _, tok := range strings.Fields(args) {
		if strings.ContainsAny(tok[:1], "|&;<>#") || strings.HasPrefix(tok, "2>") {
			break
		}
		if !strings.HasPrefix(tok, "-") {
			continue
		}
		if _, err := strconv.ParseFloat(tok, 64); err == nil {
			continue // a negative value, not a flag
		}
		name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
		flags = append(flags, name)
	}
	return flags
}

func TestDocsUseDefinedFlags(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found: %v", err)
	}
	defined := map[string]map[string]bool{}
	for _, m := range mains {
		defined[filepath.Base(filepath.Dir(m))] = definedFlags(t, m)
	}
	commands := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Join backslash continuations so a wrapped command is one line,
		// numbered by the line it starts on.
		lines := strings.Split(string(data), "\n")
		for i := 0; i < len(lines); i++ {
			start, line := i+1, lines[i]
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, "\\") + " " + lines[i]
			}
			for _, m := range goRunCmd.FindAllStringSubmatch(line, -1) {
				commands++
				flags, ok := defined[m[1]]
				if !ok {
					t.Errorf("%s:%d: go run ./cmd/%s: no such command", doc, start, m[1])
					continue
				}
				for _, f := range usedFlags(m[2]) {
					if !flags[f] {
						t.Errorf("%s:%d: %s does not define -%s", doc, start, m[1], f)
					}
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("no documented go run ./cmd/spotdc-* command found; the scan checks nothing")
	}
}
