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

// TestOneExecutor holds the module to one campaign driver, one analysis
// path and one on-disk census format. No non-test file outside bench/
// calls the whole-round reference (ExecuteContext, FoldRun); the batch
// Combine is defined only in a test file. Everything that serves or
// reports runs its rounds through Campaign.Drive: no non-test file
// outside bench/ but internal/census/drive.go calls an executor
// (ExecuteRoundPipelined, or any ExecuteRound, the cluster
// coordinator's); the reference lives on for the determinism tests and
// the benchmark. No
// non-test file outside bench/ and internal/census builds its own
// Analyzer (NewAnalyzer): analysis runs through AnalyzeAll or
// Campaign.Drive. And none of them calls the ACMR2 codec (SaveRun,
// LoadRun) or builds a census.Run: saved censuses are the per-VP record
// files of internal/record.
func TestOneExecutor(t *testing.T) {
	forEachSourceFile(t, parser.SkipObjectResolution, func(fset *token.FileSet, rel string, f *ast.File) {
		inCensus := filepath.ToSlash(filepath.Dir(rel)) == "internal/census"
		const codec = "the ACMR2 codec is `bench/`'s until ROADMAP item 5"
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && !inCensus && isCensusSel(lit.Type, "Run") {
				t.Errorf("%s: builds a census.Run, %s", fset.Position(lit.Pos()), codec)
			}
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
			bad, what := false, "the whole-round reference; run rounds through Campaign.Drive"
			switch name {
			case "ExecuteContext", "FoldRun":
				bad = true
			case "ExecuteRoundPipelined", "ExecuteRound":
				bad, what = rel != "internal/census/drive.go", "a second round loop; run rounds through Campaign.Drive"
			case "NewAnalyzer":
				bad = qualified && !inCensus
				what = "a second analysis path; analyze through AnalyzeAll or Campaign.Drive"
			case "SaveRun", "LoadRun":
				bad, what = qualified && !inCensus, codec
			}
			if bad {
				t.Errorf("%s: calls %s, %s", fset.Position(call.Pos()), name, what)
			}
			return true
		})
	})
}

// TestNoGob fails on a non-test import of encoding/gob. Gob matches
// fields by name: it drops the fields its reader lacks and zero-fills the
// ones its writer lacks, so two builds that disagree on a struct exchange
// different values without an error. Every byte that crosses a process,
// file or socket boundary goes through a fixed-binary codec instead. Two
// files are exempt until their formats are replaced, and an exemption
// whose file no longer imports gob fails too.
func TestNoGob(t *testing.T) {
	exempt := map[string]string{
		"internal/census/iov2.go":    "the ACMR2 run codec, deleted once bench/ stops calling it (ROADMAP item 5)",
		"internal/store/snapfile.go": "the snapshot health section, fixed binary in ACMSNAP2 (ROADMAP item 9)",
	}
	forEachSourceFile(t, parser.ImportsOnly, func(fset *token.FileSet, rel string, f *ast.File) {
		for _, imp := range f.Imports {
			if imp.Path.Value != `"encoding/gob"` {
				continue
			}
			if _, ok := exempt[rel]; ok {
				delete(exempt, rel)
			} else {
				t.Errorf("%s: imports encoding/gob; write a fixed-binary codec", fset.Position(imp.Pos()))
			}
		}
	})
	for rel, why := range exempt {
		t.Errorf("%s no longer imports encoding/gob; drop its exemption (%s)", rel, why)
	}
}

// forEachSourceFile parses every non-test Go file of the module outside
// bench/ (its own module) and testdata, and hands each to check with its
// slash-separated path relative to the module root.
func forEachSourceFile(t *testing.T, mode parser.Mode, check func(fset *token.FileSet, rel string, f *ast.File)) {
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
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		checked++
		check(fset, rel, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("walked only %d non-test Go files; is the module root %s?", checked, root)
	}
}

// isCensusSel reports whether expr is census.<name>.
func isCensusSel(expr ast.Expr, name string) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "census" && sel.Sel.Name == name
}
