// Package analysis is a small, dependency-free reimplementation of the
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) used by the repo's
// custom linters. The real golang.org/x/tools/go/analysis framework is the
// obvious choice, but this module builds in hermetic environments with an
// empty module cache, so the linters are written against a stdlib-only core:
// packages are loaded with `go list` + go/parser + go/types (source importer),
// and analyzers receive the same (Fset, Files, Pkg, TypesInfo) quadruple a
// go/analysis Pass would carry. Migrating an analyzer to x/tools later is a
// mechanical change of import paths.
//
// Suppression follows staticcheck's convention: a comment
//
//	//lint:ignore poolcheck reason...
//
// on the line before a statement (or trailing on the same line) suppresses
// the named analyzers — comma-separated, or * for all — for that statement's
// whole extent. The reason is mandatory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one check. Run inspects a single package via its Pass
// and reports findings; it must not retain the Pass.
type Analyzer struct {
	Name string // command-line and //lint:ignore name, e.g. "poolcheck"
	Doc  string // one-paragraph description, shown by `neurolint -help`
	Run  func(*Pass) error

	// ExemptTests removes _test.go files from Pass.Files before Run: the
	// analyzer's contract doesn't apply to test code (benchmark loops
	// without cancellation, say).
	// Scoping the exemption per analyzer keeps every other check live on
	// test files.
	ExemptTests bool
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module is the interprocedural context: the whole-load call graph and
	// per-function summaries. Always non-nil — Run builds a single-package
	// module when the caller didn't supply one.
	Module *Module

	// Package is the loaded package under analysis, for Module helpers
	// that resolve objects through the package's own TypesInfo.
	Package *Package

	diags []Diagnostic
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzer to pkg and returns surviving diagnostics,
// already filtered through //lint:ignore suppression and sorted by position.
// mod supplies the interprocedural context; pass nil to have Run build a
// single-package module (the antest path — multi-package callers like
// neurolint build one Module for the whole load and share it).
func Run(a *Analyzer, pkg *Package, mod *Module) ([]Diagnostic, error) {
	if mod == nil {
		mod = BuildModule([]*Package{pkg})
	}
	files := pkg.Files
	if a.ExemptTests {
		files = nil
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			if !strings.HasSuffix(name, "_test.go") {
				files = append(files, f)
			}
		}
	}
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Module:    mod,
		Package:   pkg,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	diags := suppress(pass.diags, pkg)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// ignoreRange is the extent of one //lint:ignore directive: the following
// (or enclosing-line) statement or declaration. dirPos is the directive
// comment's own position, the key for used-suppression tracking.
type ignoreRange struct {
	names      map[string]bool // analyzer names; "*" ignores all
	start, end token.Pos
	dirPos     token.Pos
}

// suppress drops diagnostics covered by a matching //lint:ignore range,
// recording on the package which directives actually fired — the input to
// the stale-ignore check.
func suppress(diags []Diagnostic, pkg *Package) []Diagnostic {
	ranges := ignoreRanges(pkg)
	if len(ranges) == 0 {
		return diags
	}
	if pkg.usedIgnores == nil {
		pkg.usedIgnores = map[token.Pos]bool{}
	}
	out := diags[:0]
	for _, d := range diags {
		ignored := false
		for _, r := range ranges {
			if d.Pos >= r.start && d.Pos < r.end && (r.names["*"] || r.names[d.Analyzer]) {
				ignored = true
				pkg.usedIgnores[r.dirPos] = true
				break
			}
		}
		if !ignored {
			out = append(out, d)
		}
	}
	return out
}

// Directive is one //lint:ignore comment in a package, with the analyzer
// names it suppresses.
type Directive struct {
	Names []string
	Pos   token.Pos
}

// Directives lists every //lint:ignore comment in pkg, attached or not.
func Directives(pkg *Package) []Directive {
	var out []Directive
	seen := map[token.Pos]bool{}
	for _, r := range ignoreRanges(pkg) {
		if seen[r.dirPos] {
			continue
		}
		seen[r.dirPos] = true
		var names []string
		for n := range r.names {
			names = append(names, n)
		}
		sort.Strings(names)
		out = append(out, Directive{Names: names, Pos: r.dirPos})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Used reports whether the directive at pos suppressed at least one
// diagnostic across every analyzer run on pkg so far.
func Used(pkg *Package, pos token.Pos) bool { return pkg.usedIgnores[pos] }

// ignoreRanges scans a package for //lint:ignore comments and resolves each
// to the syntax it governs: the largest statement, declaration, or spec
// whose first line is the comment's own line (trailing form) or the line
// directly below it.
func ignoreRanges(pkg *Package) []ignoreRange {
	var out []ignoreRange
	for _, f := range pkg.Files {
		// Collect directive lines first: line -> directive.
		type directive struct {
			names map[string]bool
			pos   token.Pos
		}
		directives := map[int]directive{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // reason is mandatory; a bare name is not a directive
				}
				names := map[string]bool{}
				for _, n := range strings.Split(fields[0], ",") {
					names[n] = true
				}
				directives[pkg.Fset.Position(c.Pos()).Line] = directive{names: names, pos: c.Pos()}
			}
		}
		if len(directives) == 0 {
			continue
		}
		// Attach each directive to the largest node starting on its line or
		// the next line. Pre-order traversal visits enclosing nodes first, so
		// the first match per line wins.
		claimed := map[int]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			switch n.(type) {
			case ast.Stmt, ast.Decl, ast.Spec:
			default:
				return true
			}
			line := pkg.Fset.Position(n.Pos()).Line
			for _, l := range []int{line, line - 1} {
				if d, ok := directives[l]; ok && !claimed[l] {
					claimed[l] = true
					out = append(out, ignoreRange{names: d.names, start: n.Pos(), end: n.End(), dirPos: d.pos})
				}
			}
			return true
		})
		// A directive that attached to nothing still participates in the
		// stale check: record it with an empty range.
		for _, d := range directives {
			line := pkg.Fset.Position(d.pos).Line
			if !claimed[line] {
				out = append(out, ignoreRange{names: d.names, start: d.pos, end: d.pos, dirPos: d.pos})
			}
		}
	}
	return out
}
