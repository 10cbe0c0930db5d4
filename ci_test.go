package accmos_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCISelectorsMatchTests keeps the CI workflow's test selectors
// honest. `go test -run 'A|B' pkgs` answers "no tests to run" and passes
// when an alternative names a test that no longer exists, so a deleted
// or renamed test would silently turn a CI step into a no-op. Every `|`
// alternative of every selector must match at least one `func Test…`
// declared in the selected packages' _test.go files. The files are only
// parsed, never compiled.
func TestCISelectorsMatchTests(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	sels := ciSelectors(string(data))
	if len(sels) == 0 {
		t.Fatal("found no `go test -run` selectors in ci.yml")
	}
	for _, sel := range sels {
		var names []string
		for _, pkg := range sel.pkgs {
			names = append(names, declaredTests(t, filepath.Join(sel.dir, pkg))...)
		}
		if len(names) == 0 {
			t.Errorf("ci.yml line %d: packages %v (in %s) declare no tests", sel.line, sel.pkgs, sel.dir)
			continue
		}
		for _, alt := range splitAlternatives(sel.re) {
			top, _, _ := strings.Cut(alt, "/") // subtest levels do not name a func
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("ci.yml line %d: alternative %q: %v", sel.line, alt, err)
				continue
			}
			if !matchesAny(re, names) {
				t.Errorf("ci.yml line %d: -run alternative %q matches no test in %v (in %s)", sel.line, alt, sel.pkgs, sel.dir)
			}
		}
	}
}

// ciSelector is one `go test -run '<re>' <pkgs>` invocation, with the
// directory its run block changed into (`cd dir`) before it.
type ciSelector struct {
	line int
	dir  string
	re   string
	pkgs []string
}

// ciSelectors extracts every go test invocation that selects tests with
// -run. `-run=NONE` is the idiom for running benchmarks only and selects
// nothing on purpose, so it is skipped.
func ciSelectors(yml string) []ciSelector {
	var out []ciSelector
	dir := "."
	for i, raw := range strings.Split(yml, "\n") {
		line := strings.TrimSpace(raw)
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "- ") || strings.HasPrefix(line, "run:") {
			dir = "." // a new step or run block starts in the checkout root
		}
		line = strings.TrimPrefix(line, "run:")
		line = strings.TrimSpace(line)
		if d, ok := strings.CutPrefix(line, "cd "); ok {
			dir = strings.TrimSpace(d)
			continue
		}
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		args := shellWords(cmd)
		sel := ciSelector{line: i + 1, dir: dir}
		hasRun := false
		for j := 0; j < len(args); j++ {
			a := args[j]
			switch {
			case a == "-run" && j+1 < len(args):
				sel.re, hasRun = args[j+1], true
				j++
			case strings.HasPrefix(a, "-run="):
				sel.re, hasRun = strings.TrimPrefix(a, "-run="), true
			case strings.HasPrefix(a, "-"):
			default:
				sel.pkgs = append(sel.pkgs, a)
			}
		}
		if !hasRun || sel.re == "NONE" {
			continue
		}
		if len(sel.pkgs) == 0 {
			sel.pkgs = []string{"."}
		}
		out = append(out, sel)
	}
	return out
}

// shellWords splits a command line on blanks, honouring single quotes.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	quoted, inWord := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// splitAlternatives splits a -run regexp on its top-level `|`.
func splitAlternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	for i, r := range re {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, re[start:])
}

// declaredTests lists the Test functions declared in the _test.go files
// of one package pattern (a directory, or dir/... for the tree below it,
// stopping at nested modules as go test does).
func declaredTests(t *testing.T, pattern string) []string {
	t.Helper()
	root, recursive := strings.CutSuffix(filepath.ToSlash(pattern), "/...")
	if root == "..." {
		root, recursive = ".", true
	}
	root = filepath.Clean(root)
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if !recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading tests under %s: %v", pattern, err)
	}
	return names
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
