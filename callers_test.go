package tiledcfd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyKept lists, by the reason they stay, the functions and methods
// in internal/ that only tests reach, keyed "pkg.Func" or
// "pkg.Type.Method". Anything else that only tests reach is dead code
// and gets deleted with its tests.
var testOnlyKept = map[string]string{
	"reference the tests compare against": `fft.DFT fft.RealForward scf.ComputeDirect
		scf.Surface.HermitianError soc.Platform.RunSync mapping.TaskOfA
		fixed.WidenRow fixed.ToFloatSlice`,
	"SWAR lane primitive the fixed fuzzers check": `fixed.LaneAdd fixed.LaneSub
		fixed.PackCLane fixed.CLaneMul fixed.CLaneBFly fixed.CLaneBFlyNoScale fixed.CLaneRShiftRound`,
	"named by docs/PAPER_MAPPING.md": `dg.ConsumedBins fft.FixedPlan.ForwardScaledBatchWith`,
	"fault the failover and error-propagation tests inject": `chaos.Controller.ResetNext
		noc.Link.Break noc.Fabric.Links`,
	"accessor a test of kept code asserts through": `chaos.Controller.Wrapped
		mapping.Folding.UsedCores mapping.LineArray.PEOf montium.AGU.Remaining
		trace.Recorder.Len trace.Recorder.TotalIn`,
	// Deleting each of these takes at least one test with it, so they go
	// in later changes, a few tests at a time; this list only shrinks.
	"dead, deletion deferred": `chaos.Controller.SetLatency chaos.Controller.DropWrites
		chaos.Controller.TruncateNextWrite core.OccupancyRatio
		detect.EnergyThresholdForPfa dg.CountDiagonals dg.Mapped.ProcessorSet fft.Plan.Inverse
		fft.RealComplexMults fixed.GuardBitsNeeded fixed.MulNoRound fixed.Half
		mapping.RegisterChain.InitialValue mapping.RegisterChain.InjectedValue
		mapping.TotalInitialLoads mapping.CompareDedicatedFFT montium.Core.RunEnergy
		montium.Core.ZeroAccumulators perf.Model.EnergyPerBlockUJ scf.QuantiseSurface
		scf.Surface.TotalEnergy sig.Frames sig.NumFrames sig.CPAutocorrelation sig.Rand.Intn
		systolic.FoldedArray.CommComputeRatio`,
}

// TestInternalFuncsHaveCallers fails for every function or method
// declared in internal/ whose name appears in no non-test Go file of the
// repository outside its own declaration, unless testOnlyKept names it,
// and for every name on that list that has such a caller. The check
// matches identifiers, not types, so a name shared with a called
// function hides a dead one; it catches code whose only callers are
// tests without type-checking the tree.
func TestInternalFuncsHaveCallers(t *testing.T) {
	type decl struct {
		key, pos string
		fd       *ast.FuncDecl
	}
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, dd := range f.Decls {
			if fd, ok := dd.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
				decls = append(decls, decl{declKey(f, fd), fset.Position(fd.Pos()).String(), fd})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, keys := range testOnlyKept {
		for _, key := range strings.Fields(keys) {
			kept[key] = true
		}
	}
	var problems []string
	for _, d := range decls {
		own := 0
		ast.Inspect(d.fd, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == d.fd.Name.Name {
				own++
			}
			return true
		})
		listed := kept[d.key]
		delete(kept, d.key)
		switch testOnly := uses[d.fd.Name.Name] == own; {
		case testOnly && !listed:
			problems = append(problems, d.pos+": "+d.key+" has no caller outside tests: delete it, or name it in testOnlyKept with the reason it stays")
		case !testOnly && listed:
			problems = append(problems, d.pos+": "+d.key+" has a caller outside tests now: drop it from the allowlist")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
	for key := range kept {
		t.Errorf("testOnlyKept names %s, which is not declared in internal/", key)
	}
}

// declKey is "pkg.Func" or "pkg.Type.Method" for a declaration in f.
func declKey(f *ast.File, fd *ast.FuncDecl) string {
	key := f.Name.Name + "."
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		typ := fd.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		switch tt := typ.(type) {
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.IndexListExpr:
			typ = tt.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			key += id.Name + "."
		}
	}
	return key + fd.Name.Name
}
