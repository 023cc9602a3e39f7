// Package analysis implements simlint: a suite of static analyzers that
// enforce the Time Warp kernel's contracts at build time —
// reverse-computation completeness (reversecheck), handler determinism
// (determcheck), and goroutine ownership of annotated fields, the
// lock-free lanes' single-writer indexes and publish order among them
// (ownercheck). See docs/ANALYSIS.md for the contracts, the escape-hatch
// annotations and the evidence each analyzer stays on.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// diagnostics, object facts) but is built on the standard library only:
// the toolchains this repository targets are offline, so the x/tools
// module cannot be fetched. Packages are loaded by internal/analysis/load
// and driven in dependency order by internal/analysis/driver, which is
// what lets analyzers export facts about a package's functions and
// consume them while analyzing its dependents.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// An Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Keyword is the //simlint:<keyword> suppression annotation that
	// waives this analyzer's findings (with a reason naming the invariant
	// being waived).
	Keyword string
	// Run executes the analyzer on one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding. Waived findings are still reported — the
// driver uses them for stale-waiver accounting and machine-readable
// output — but they don't fail a lint run.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Waived is true when a //simlint:<keyword> annotation suppresses
	// this finding.
	Waived bool
}

// A Pass provides one analyzer with one package's syntax and types, plus
// the fact store shared across the whole driver run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	directives *directiveIndex
	facts      *FactStore
	usage      *DirectiveUsage
	report     func(Diagnostic)
}

// Reportf records a finding. A //simlint:<keyword> annotation at the
// position (same line, the line above, or the enclosing function's doc
// comment) marks it Waived rather than dropping it, so the driver can
// tell a waiver that still earns its keep from a stale one.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Waived: p.Suppressed(pos)})
}

// Suppressed reports whether a finding of this analyzer at pos is waived
// by an annotation, and records every matching annotation as used. Only
// annotations in the files of this pass are consulted, so analyzers that
// surface cross-package facts should check suppression in the fact's
// home package before exporting it.
func (p *Pass) Suppressed(pos token.Pos) bool {
	return p.directives.suppressed(p.Fset, pos, p.Analyzer.Keyword, p.usage)
}

// ExportObjectFact attaches a fact to obj for downstream packages. Facts
// are keyed by (object, concrete fact type): exporting a second fact of
// the same type for the same object overwrites the first.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	p.facts.set(obj, fact)
}

// ImportObjectFact copies the fact of *ptr's type attached to obj into
// *ptr and reports whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, ptr any) bool {
	return p.facts.get(obj, ptr)
}

// FactStore holds object facts for one driver run. Because every package
// in a run shares one types object world (see internal/analysis/load),
// plain object identity keys work across packages.
type FactStore struct {
	m map[factKey]any
}

type factKey struct {
	obj types.Object
	typ reflect.Type
}

// NewFactStore returns an empty fact store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]any)}
}

func (s *FactStore) set(obj types.Object, fact any) {
	s.m[factKey{obj, reflect.TypeOf(fact)}] = fact
}

func (s *FactStore) get(obj types.Object, ptr any) bool {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer {
		panic("analysis: ImportObjectFact requires a pointer")
	}
	fact, ok := s.m[factKey{obj, v.Elem().Type()}]
	if !ok {
		return false
	}
	v.Elem().Set(reflect.ValueOf(fact))
	return true
}

// NewPass assembles a Pass for one (analyzer, package) pair. The driver
// and the analysistest harness are the only callers. usage may be nil
// when the caller doesn't care about stale-waiver accounting.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore, usage *DirectiveUsage, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		directives: indexDirectives(fset, files),
		facts:      facts,
		usage:      usage,
		report:     report,
	}
}

// Analyzers returns the full simlint suite in its canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Reversecheck, Determcheck, Ownercheck}
}
