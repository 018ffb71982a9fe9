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

// exportKeep lists the exported top-level functions (dir.Name) and methods
// (dir.Type.Name) under internal/ that no non-test code calls but that
// stay, each with its reason. TestExportsHaveCallers keeps the list exact.
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
	// measure runs the DES through (*simmpi.Scratch).RunFaulty, which keeps
	// a run's memory for the next one.
	"internal/simmpi.RunFaulty": "the DES with memory of its own: the engine's tests and fuzzing, BenchmarkDESKernel and workload's allocation budgets run it",
	// ByName builds only the benchmark it returns, from its registry.
	"internal/workload.All": "the seven models in the paper's order; the core, measure and workload tests range over every benchmark with it",

	"internal/xrand.Stream.Intn":             "the bounded draw the test generators (simmpi, telemetry, core, service) make their cases with",
	"internal/flight.f6.MarshalJSON":         "json.Marshaler: encoding/json calls it for every trace timestamp and duration",
	"internal/hw/gpu.Controller.LockedClock": "the read-back half of LockClocks; the gpu tests and TestHeteroEndToEndFS check a lock with it",
	"internal/report.Table.NumRows":          "the report and experiments tests check each table's size with it",
}

// TestExportsHaveCallers: every exported top-level function and every
// exported method under internal/ has a non-test caller in the root or
// bench module, or is on exportKeep; and every exportKeep entry still
// exists and still has no caller. A function's caller is a qualified
// reference (pkg.Name) from another package, or a reference to the name
// inside its own package other than its declaration. A method counts as
// called when any non-test file selects its name (x.Name): without type
// information the test cannot tell receivers apart, so it can only miss
// an uncalled method, never flag a called one.
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

	// Exported top-level functions under internal/, keyed dir.Name, and
	// exported methods, keyed dir.Type.Name with their names in methods.
	declared := map[string]bool{}
	methods := map[string]string{}
	for dir, pkgFiles := range files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				switch {
				case !ok || !fn.Name.IsExported():
				case fn.Recv == nil:
					declared[dir+"."+fn.Name.Name] = true
				default:
					key := dir + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
					declared[key] = true
					methods[key] = fn.Name.Name
				}
			}
		}
	}

	called := map[string]bool{}
	selected := map[string]bool{} // every name any non-test file selects
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
					selected[n.Sel.Name] = true
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

	for key, name := range methods {
		called[key] = selected[name]
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

// recvType is the name of a method's receiver type, without its pointer
// and type parameters.
func recvType(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
