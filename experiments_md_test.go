package apusim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// extensionHeading opens the EXPERIMENTS.md table whose rows must each
// start with a registered experiment ID.
const extensionHeading = "## Extension experiments"

var (
	// firstCode is a row's first code span: `policy` in "| `policy` / …".
	firstCode = regexp.MustCompile("^\\|\\s*`([^`]+)`")
	benchName = regexp.MustCompile(`\bBenchmark[A-Za-z0-9_]+`)
)

// TestExperimentsDocMatchesRegistry keeps EXPERIMENTS.md from naming what
// no binary runs: every row of the extension table starts with an ID
// cmd/repro can run, and every Benchmark… the file names is declared in
// this package's tests.
func TestExperimentsDocMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, e := range Experiments().Experiments() {
		ids[e.ID] = true
	}
	rows := extensionRows(t, string(doc))
	if len(rows) == 0 {
		t.Fatalf("EXPERIMENTS.md has no rows under %q", extensionHeading)
	}
	for _, row := range rows {
		m := firstCode.FindStringSubmatch(row)
		if m == nil || !ids[m[1]] {
			t.Errorf("extension row does not start with a registered experiment ID:\n%s", row)
		}
	}

	declared := rootBenchmarks(t)
	for _, name := range benchName.FindAllString(string(doc), -1) {
		if !declared[name] {
			t.Errorf("EXPERIMENTS.md names %s, which no _test.go in the root package declares", name)
		}
	}
}

// extensionRows returns the body rows of the table under
// extensionHeading: the lines from its header separator to the first
// line that is not a table row.
func extensionRows(t *testing.T, doc string) []string {
	t.Helper()
	_, section, ok := strings.Cut(doc, extensionHeading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q section", extensionHeading)
	}
	var rows []string
	inBody := false
	for _, line := range strings.Split(section, "\n") {
		switch {
		case strings.HasPrefix(line, "|---"):
			inBody = true
		case inBody && strings.HasPrefix(line, "|"):
			rows = append(rows, line)
		case inBody:
			return rows
		}
	}
	return rows
}

// rootBenchmarks reports the Benchmark functions the root package's test
// files declare.
func rootBenchmarks(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	names := make(map[string]bool)
	for _, f := range files {
		parsed, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range parsed.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				names[fn.Name.Name] = true
			}
		}
	}
	return names
}
