package main

// Analyzer "testdeterminism": a test that draws unseeded randomness checks
// a different input on every run, so a failure it finds once may never
// reproduce and a flaky property can hide for months. Two shapes are
// flagged in _test.go files:
//
//   - quick.Check / quick.CheckEqual whose *quick.Config is nil or has no
//     Rand field (testing/quick then seeds from the wall clock);
//   - package-level math/rand calls (rand.Intn, rand.Shuffle, ...), which
//     draw from the global, randomly seeded source. Constructors
//     (rand.New, rand.NewSource, ...) are how seeded generators are made
//     and stay allowed.
//
// A Config held in a variable is accepted when the enclosing function
// builds it from a literal with a Rand field or assigns its Rand field.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// randConstructors are the math/rand (and v2) functions that build a
// generator instead of drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// lintTestDeterminism checks every _test.go file of one directory.
func lintTestDeterminism(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatal(err)
	}
	fset := token.NewFileSet()
	var bad []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			fatal(err)
		}
		bad = append(bad, lintTestFile(fset, f)...)
	}
	sort.Strings(bad)
	return bad
}

// importNames maps the local names of the given import paths in f.
func importNames(f *ast.File, paths ...string) map[string]bool {
	names := map[string]bool{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		for _, want := range paths {
			if p != want {
				continue
			}
			name := filepath.Base(p)
			if p == "math/rand/v2" {
				name = "rand"
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = true
		}
	}
	return names
}

func lintTestFile(fset *token.FileSet, f *ast.File) []string {
	quickPkg := importNames(f, "testing/quick")
	randPkg := importNames(f, "math/rand", "math/rand/v2")
	if len(quickPkg) == 0 && len(randPkg) == 0 {
		return nil
	}
	var bad []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch {
			case quickPkg[pkg.Name] && (sel.Sel.Name == "Check" || sel.Sel.Name == "CheckEqual"):
				if len(call.Args) > 0 && !seededConfig(fd.Body, call.Args[len(call.Args)-1]) {
					bad = append(bad, fmt.Sprintf("%s: %s.%s without a seeded Config.Rand draws wall-clock-seeded inputs",
						fset.Position(call.Pos()), pkg.Name, sel.Sel.Name))
				}
			case randPkg[pkg.Name] && !randConstructors[sel.Sel.Name]:
				bad = append(bad, fmt.Sprintf("%s: %s.%s draws from the global unseeded source; use a seeded rand.New",
					fset.Position(call.Pos()), pkg.Name, sel.Sel.Name))
			}
			return true
		})
	}
	return bad
}

// seededConfig reports whether cfg, the Config argument of a quick call in
// body, certainly carries a Rand: a literal with a Rand field, or a variable
// that body builds from such a literal or whose Rand field it assigns.
func seededConfig(body *ast.BlockStmt, cfg ast.Expr) bool {
	if lit := configLiteral(cfg); lit != nil {
		return hasRandField(lit)
	}
	if u, ok := cfg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		cfg = u.X // &cfg of a local quick.Config value
	}
	id, ok := cfg.(*ast.Ident)
	if !ok || id.Name == "nil" {
		return false
	}
	seeded := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				if l, ok := lhs.(*ast.Ident); ok && l.Name == id.Name {
					if lit := configLiteral(x.Rhs[i]); lit != nil && hasRandField(lit) {
						seeded = true
					}
				}
				if s, ok := lhs.(*ast.SelectorExpr); ok && s.Sel.Name == "Rand" {
					if l, ok := s.X.(*ast.Ident); ok && l.Name == id.Name {
						seeded = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if name.Name == id.Name && i < len(x.Values) {
					if lit := configLiteral(x.Values[i]); lit != nil && hasRandField(lit) {
						seeded = true
					}
				}
			}
		}
		return !seeded
	})
	return seeded
}

// configLiteral unwraps &T{...} and T{...} to the composite literal.
func configLiteral(e ast.Expr) *ast.CompositeLit {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	lit, _ := e.(*ast.CompositeLit)
	return lit
}

func hasRandField(lit *ast.CompositeLit) bool {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Rand" {
				return true
			}
		}
	}
	return false
}
