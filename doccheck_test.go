package tiledcfd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// auditedPackages are the directories whose exported identifiers must
// all carry doc comments — the godoc audit the docs CI job enforces.
// The list covers the public facade and the subsystems the README sends
// readers into.
var auditedPackages = []string{
	".",
	"internal/chaos",
	"internal/detect",
	"internal/fam",
	"internal/fft",
	"internal/fixed",
	"internal/freelist",
	"internal/scf",
	"internal/sig",
	"internal/shard",
	"internal/stream",
	"internal/tile",
	"internal/montium",
	"internal/wire",
}

// TestExportedDocComments fails for every exported identifier in the
// audited packages that godoc would render without a doc comment.
func TestExportedDocComments(t *testing.T) {
	for _, dir := range auditedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			for file, f := range pkg.Files {
				if strings.HasSuffix(file, "_test.go") {
					continue
				}
				auditFile(t, fset, file, f)
			}
		}
	}
}

func auditFile(t *testing.T, fset *token.FileSet, file string, f *ast.File) {
	report := func(pos token.Pos, what string) {
		t.Errorf("%s: exported %s lacks a doc comment", fset.Position(pos), what)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), "function/method "+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
					// Struct fields: exported fields need a doc or line
					// comment too.
					if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								if n.IsExported() && fld.Doc == nil && fld.Comment == nil {
									report(n.Pos(), "field "+s.Name.Name+"."+n.Name)
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), "const/var "+n.Name)
						}
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types never surface in godoc).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}
