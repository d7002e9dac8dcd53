package census

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneExecutor holds the module to one census executor and one
// analysis path. No non-test file outside bench/ calls the whole-round
// reference (ExecuteContext, FoldRun) or batch-combines runs (Combine) —
// except cmd/igreedy -runs, which min-combines saved run files. Everything
// that serves or reports goes through Campaign.ExecuteRoundPipelined or
// the cluster coordinator; the reference lives on for the determinism
// tests and the benchmark. And no non-test file outside bench/ and
// internal/census builds its own Analyzer (NewAnalyzer): analysis runs
// through AnalyzeAll or Campaign.Analyze.
func TestOneExecutor(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (rel == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked++
		inCensus := filepath.ToSlash(filepath.Dir(rel)) == "internal/census"
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// name is the called function or method; qualified says it is
			// reached as census.X from another package, or unqualified
			// from inside this one.
			var name string
			var qualified bool
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				name, qualified = fn.Name, inCensus
			case *ast.SelectorExpr:
				name = fn.Sel.Name
				if x, ok := fn.X.(*ast.Ident); ok && x.Name == "census" {
					qualified = true
				}
			default:
				return true
			}
			bad, what := false, "the whole-round reference; run rounds through Campaign.ExecuteRoundPipelined"
			switch name {
			case "ExecuteContext", "FoldRun":
				bad = true
			case "Execute":
				bad = qualified
			case "Combine":
				bad = qualified && !strings.HasPrefix(rel, "cmd/igreedy/")
			case "NewAnalyzer":
				bad = qualified && !inCensus
				what = "a second analysis path; analyze through AnalyzeAll or Campaign.Analyze"
			}
			if bad {
				t.Errorf("%s: calls %s, %s", fset.Position(call.Pos()), name, what)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("walked only %d non-test Go files; is the module root %s?", checked, root)
	}
}
