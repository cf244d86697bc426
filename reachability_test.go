package adaudit

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachabilityAllowlist names the caller-less exports that stay, one
// per line: the name as the gate prints it, then why it stays.
const reachabilityAllowlist = "testdata/reachability_allowlist.txt"

// interfaceMethods are method names that standard-library interfaces
// need (fmt.Stringer, error, io, encoding, net.Conn, net.Listener,
// slog.Handler, sort.Interface, http): such a method is called through
// the interface, so its name need not appear anywhere else.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Read": true, "Write": true, "Close": true,
	"ServeHTTP": true, "Hijack": true, "Flush": true, "WriteHeader": true, "Header": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "AppendBinary": true,
	"LocalAddr": true, "RemoteAddr": true, "SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"Accept": true, "Addr": true,
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
	"Len": true, "Less": true, "Swap": true,
}

// TestEveryExportHasACaller: every exported top-level func, type, var
// and const, and every exported method of an exported type, declared in
// a non-test file under internal/, is named somewhere other than its
// own declaration and its own package's tests, or is on the allowlist
// with a reason. An allowlist line whose name is no longer flagged
// fails too, so the list only shrinks.
func TestEveryExportHasACaller(t *testing.T) {
	allow, err := os.ReadFile(reachabilityAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	flagged, stale, err := unreachedExports(".", string(allow))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range flagged {
		t.Errorf("%s has no caller outside its own package's tests: delete it, move it into a _test.go file, or add it to %s with the document that cites it", name, reachabilityAllowlist)
	}
	for _, line := range stale {
		t.Errorf("%s: %s", reachabilityAllowlist, line)
	}
}

// TestReachabilityGateHasTeeth runs the gate on a small tree with three
// planted faults and one export that only another package's test uses.
func TestReachabilityGateHasTeeth(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/a/a.go": `package a

func Unused() {}

func OnlyOwnTests() {}

func OtherTests() {}

func Used() {}

type T struct{}

func (T) String() string { return "" }

func (T) Dead() {}
`,
		"internal/a/a_test.go":   "package a\n\nfunc init() { OnlyOwnTests(); var x T; x.Dead() }\n",
		"internal/b/b_test.go":   "package b\n\nimport \"x/internal/a\"\n\nvar _ = a.OtherTests\n",
		"cmd/tool/main.go":       "package main\n\nimport \"x/internal/a\"\n\nfunc main() { a.Used(); _ = a.T{} }\n",
		"benchmark/out/stale.go": "package out\n\nvar _ = a.Unused\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flagged, stale, err := unreachedExports(root, "# comment\ninternal/a.Gone no longer exists\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a.OnlyOwnTests", "internal/a.T.Dead", "internal/a.Unused"}
	if fmt.Sprint(flagged) != fmt.Sprint(want) {
		t.Errorf("flagged %v, want %v", flagged, want)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "internal/a.Gone") {
		t.Errorf("stale lines %q, want the one for internal/a.Gone", stale)
	}

	// An allowlisted name passes; a line without a reason does not.
	flagged, stale, err = unreachedExports(root, "internal/a.Unused cited somewhere\ninternal/a.T.Dead\n")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(flagged) != "[internal/a.OnlyOwnTests]" {
		t.Errorf("with an allowlist, flagged %v, want [internal/a.OnlyOwnTests]", flagged)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "no reason") {
		t.Errorf("stale lines %q, want one line with no reason", stale)
	}
}

// unreachedExports parses every Go file under root (skipping testdata,
// dot directories and benchmark/out) and returns the exports under
// internal/ that no file names outside their declaration and their own
// package's test files, less those the allowlist names, together with
// one message per allowlist line that has no reason or names nothing
// flagged.
func unreachedExports(root, allowlist string) (flagged, stale []string, err error) {
	type decl struct {
		name string     // as printed: dir.Name or dir.Type.Method
		id   *ast.Ident // the declaring identifier
		dir  string     // slash-separated package directory
	}
	var decls []decl
	uses := map[string]map[string]bool{} // identifier name -> dirs of the files naming it, "+_test" for test files
	self := map[*ast.Ident]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || rel == "benchmark/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		isTest := strings.HasSuffix(rel, "_test.go")
		if !isTest && strings.HasPrefix(rel, "internal/") {
			for _, dd := range f.Decls {
				for _, dc := range exportedDecls(dd) {
					decls = append(decls, decl{dir + "." + dc.name, dc.id, dir})
					self[dc.id] = true
				}
			}
		}
		user := dir
		if isTest {
			user += "+_test"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !self[id] {
				if uses[id.Name] == nil {
					uses[id.Name] = map[string]bool{}
				}
				uses[id.Name][user] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	isFlagged := map[string]bool{}
	for _, d := range decls {
		ownTests := d.dir + "+_test"
		reached := false
		for u := range uses[d.id.Name] {
			if u != ownTests {
				reached = true
				break
			}
		}
		if !reached {
			isFlagged[d.name] = true
		}
	}

	allowed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(allowlist))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		switch {
		case strings.TrimSpace(reason) == "":
			stale = append(stale, fmt.Sprintf("line %d: %s gives no reason", n, name))
		case !isFlagged[name]:
			stale = append(stale, fmt.Sprintf("line %d: %s is not flagged any more: delete the line", n, name))
		}
		allowed[name] = true
	}
	for name := range isFlagged {
		if !allowed[name] {
			flagged = append(flagged, name)
		}
	}
	sort.Strings(flagged)
	return flagged, stale, nil
}

type exportedDecl struct {
	name string
	id   *ast.Ident
}

// exportedDecls lists what the gate checks in one top-level
// declaration: an exported func, type, var or const, or an exported
// method of an exported type that no standard interface needs.
func exportedDecls(d ast.Decl) []exportedDecl {
	var out []exportedDecl
	switch d := d.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv == nil {
			return []exportedDecl{{d.Name.Name, d.Name}}
		}
		recv := receiverType(d.Recv.List[0].Type)
		if recv != nil && recv.IsExported() && !interfaceMethods[d.Name.Name] {
			out = append(out, exportedDecl{recv.Name + "." + d.Name.Name, d.Name})
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					out = append(out, exportedDecl{s.Name.Name, s.Name})
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.IsExported() {
						out = append(out, exportedDecl{id.Name, id})
					}
				}
			}
		}
	}
	return out
}

// receiverType is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}
