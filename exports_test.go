package varpower_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportKeep lists the exported top-level functions under internal/ that
// no non-test code calls but that stay, each with its reason.
// TestExportsHaveCallers keeps the list exact.
var exportKeep = map[string]string{
	// cluster builds its hardware in place with each type's Init, so
	// deleting these constructors would only move the same lines into the
	// tests that build standalone hardware with them.
	"internal/hw/module.New":                "tests build standalone modules",
	"internal/hw/msr.NewDevice":             "tests build standalone MSR devices",
	"internal/hw/rapl.NewController":        "tests build standalone RAPL controllers",
	"internal/hw/cpufreq.NewGovernor":       "tests build standalone governors",
	"internal/hw/gpu.New":                   "tests build standalone GPU devices",
	"internal/hw/gpu.NewController":         "tests build standalone GPU controllers",
	"internal/hw/rapl.FitControlModel":      "TestFitControlModelMatchesDefault checks DefaultControl against its fit",
	"internal/hw/msr.EnergyCounterToJoules": "the absolute-read codec beside EnergyDeltaJoules; the msr tests decode raw counters with it",
	"internal/config.SaveSystem":            "the write half of LoadSystem's format; the round-trip and fuzz tests pin the format with it",
	"internal/core.LoadPVT":                 "the read half of pvtgen's PVT file; the integration test reads pvtgen's output back with it",
	"internal/core.GeneratePVTLibrary":      "entry to the multi-PVT extension (BenchmarkExtensionMultiPVT, runners.golden's multipvt lines), kept until it gets a varsim experiment or goes whole",
	// measure runs the DES through (*simmpi.Scratch).RunFaulty, which keeps
	// a run's memory for the next one.
	"internal/simmpi.RunFaulty": "the DES with memory of its own: the engine's tests and fuzzing, BenchmarkDESKernel and workload's allocation budgets run it",
	// ByName builds only the benchmark it returns, from its registry.
	"internal/workload.All": "the seven models in the paper's order; the core, measure and workload tests range over every benchmark with it",
}

// TestExportsHaveCallers: every exported top-level function under
// internal/ has a non-test caller in the root or bench module, or is on
// exportKeep; and every exportKeep entry still exists and still has no
// caller. A caller is a qualified reference (pkg.Name) from another
// package, or a reference to the name inside its own package other than
// its declaration.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by directory, relative to the root
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported top-level functions under internal/, keyed dir.Name.
	declared := map[string]bool{}
	for dir, pkgFiles := range files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
					declared[dir+"."+fn.Name.Name] = true
				}
			}
		}
	}

	called := map[string]bool{}
	for dir, pkgFiles := range files {
		for _, f := range pkgFiles {
			// Local names of the internal packages this file imports.
			imports := map[string]string{}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				rel, ok := strings.CutPrefix(p, "varpower/")
				if !ok || !strings.HasPrefix(rel, "internal/") {
					continue
				}
				name := path.Base(rel)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = rel
			}
			// Identifiers that name a declaration or a selected member,
			// not a package-level function of this package.
			skip := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					skip[n.Name] = true
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if rel, ok := imports[x.Name]; ok {
							called[rel+"."+n.Sel.Name] = true
						}
					}
				case *ast.Ident:
					if !skip[n] && declared[dir+"."+n.Name] {
						called[dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	var uncalled []string
	for fn := range declared {
		if !called[fn] && exportKeep[fn] == "" {
			uncalled = append(uncalled, fn)
		}
	}
	sort.Strings(uncalled)
	for _, fn := range uncalled {
		t.Errorf("%s has no caller outside tests: delete it, or add it to exportKeep with the reason it stays", fn)
	}
	for fn := range exportKeep {
		switch {
		case !declared[fn]:
			t.Errorf("exportKeep lists %s, which no longer exists", fn)
		case called[fn]:
			t.Errorf("exportKeep lists %s, which now has a caller: drop it from the list", fn)
		}
	}
}
