package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// simlint annotations are single-line comments of the form
//
//	//simlint:<keyword> <reason naming the waived invariant>
//
// A suppression annotation waives one analyzer's findings on the line it
// shares, the line directly below it, or — when it appears in a function's
// doc comment — the whole function body. The reason text is mandatory
// (enforced by the driver): an unexplained waiver is itself a finding, so
// every escape hatch in the tree names the invariant it bypasses.
//
// The non-suppression directives are ownercheck's markers: //simlint:owned
// tags a struct field as goroutine-owned, //simlint:spsc tags an atomic
// index of a single-producer/single-consumer pair and //simlint:publishes
// <field> tags an atomic guard whose store publishes the named sibling
// field. Markers take no reason; publishes takes the published field's
// name as its argument.
const directivePrefix = "//simlint:"

// SuppressionKeywords maps each annotation keyword to the analyzers it
// waives. Markers ("owned", "spsc", "publishes") are absent:
// they tag declarations, they don't waive findings.
var SuppressionKeywords = map[string]string{
	"irreversible":  "reversecheck",
	"deterministic": "determcheck",
	"crosspe":       "ownercheck",
}

// MarkerKeywords are directives that tag declarations for an analyzer
// rather than waiving findings.
var MarkerKeywords = map[string]bool{
	"owned":     true,
	"spsc":      true,
	"publishes": true,
}

// Directive is one parsed //simlint: annotation.
type Directive struct {
	Keyword string
	Reason  string
	// Pos is the position of the comment.
	Pos token.Pos
	// Doc is true when the annotation sits in a declaration's doc
	// comment, scoping it to the whole declaration.
	Doc bool
	// attached is true when the annotation's comment group is the doc or
	// trailing comment of a field or spec — anchored by attachment even
	// when the group spans more lines than the directive's line scope.
	attached bool
	// startLine..endLine is the suppression scope in the comment's file.
	startLine, endLine int
}

// DirectiveUsage records, across a whole driver run, which suppression
// annotations matched at least one finding (waived or not). The driver's
// stale-waiver pass flags anchored waivers that never did: a waiver that
// suppresses nothing is dead weight at best and, at worst, hides that
// the code it used to cover has drifted.
type DirectiveUsage struct {
	used map[token.Pos]bool
}

// NewDirectiveUsage returns an empty usage store.
func NewDirectiveUsage() *DirectiveUsage {
	return &DirectiveUsage{used: make(map[token.Pos]bool)}
}

func (u *DirectiveUsage) mark(pos token.Pos) {
	if u != nil {
		u.used[pos] = true
	}
}

// Used reports whether the annotation whose comment starts at pos
// suppressed at least one finding.
func (u *DirectiveUsage) Used(pos token.Pos) bool {
	return u != nil && u.used[pos]
}

// directiveIndex holds the annotations of one package's files, keyed by
// file base offset for fast position lookup.
type directiveIndex struct {
	byFile map[*token.File][]Directive
}

// parseDirective splits one comment into a directive, if it is one.
func parseDirective(text string) (keyword, reason string, ok bool) {
	rest, found := strings.CutPrefix(text, directivePrefix)
	if !found {
		return "", "", false
	}
	keyword, reason, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(keyword), strings.TrimSpace(reason), true
}

// indexDirectives collects every simlint annotation in files. Line-level
// annotations cover their own line and the next; annotations inside a
// function declaration's doc comment cover the whole declaration.
func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byFile: make(map[*token.File][]Directive)}
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf == nil {
			continue
		}
		// Doc-comment scopes: map each doc comment group to its decl span.
		docScope := make(map[*ast.CommentGroup][2]int)
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc != nil {
				docScope[doc] = [2]int{fset.Position(decl.Pos()).Line, fset.Position(decl.End()).Line}
			}
		}
		// Comment groups attached to fields and specs: markers there apply
		// by attachment (HasMarker/MarkerArg read the whole group), so they
		// are anchored even when the group spans extra lines.
		attached := make(map[*ast.CommentGroup]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			var doc, comment *ast.CommentGroup
			switch x := n.(type) {
			case *ast.Field:
				doc, comment = x.Doc, x.Comment
			case *ast.TypeSpec:
				doc, comment = x.Doc, x.Comment
			case *ast.ValueSpec:
				doc, comment = x.Doc, x.Comment
			}
			if doc != nil {
				attached[doc] = true
			}
			if comment != nil {
				attached[comment] = true
			}
			return true
		})
		for _, cg := range f.Comments {
			scope, isDoc := docScope[cg]
			for _, c := range cg.List {
				keyword, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				line := fset.Position(c.Pos()).Line
				d := Directive{Keyword: keyword, Reason: reason, Pos: c.Pos(), attached: attached[cg], startLine: line, endLine: line + 1}
				if isDoc {
					d.Doc = true
					d.startLine, d.endLine = scope[0], scope[1]
				}
				idx.byFile[tf] = append(idx.byFile[tf], d)
			}
		}
	}
	return idx
}

// suppressed reports whether a finding with the given analyzer keyword at
// pos falls inside any matching annotation's scope, marking every match
// as used in the (possibly nil) usage store.
func (idx *directiveIndex) suppressed(fset *token.FileSet, pos token.Pos, keyword string, usage *DirectiveUsage) bool {
	if keyword == "" || !pos.IsValid() {
		return false
	}
	tf := fset.File(pos)
	if tf == nil {
		return false
	}
	line := fset.Position(pos).Line
	hit := false
	for _, d := range idx.byFile[tf] {
		if d.Keyword == keyword && line >= d.startLine && line <= d.endLine {
			usage.mark(d.Pos)
			hit = true
		}
	}
	return hit
}

// Directives returns every annotation in the files, for driver hygiene
// checks (unknown keywords, missing reasons).
func Directives(fset *token.FileSet, files []*ast.File) []Directive {
	idx := indexDirectives(fset, files)
	var out []Directive
	for _, ds := range idx.byFile {
		out = append(out, ds...)
	}
	return out
}

// HasMarker reports whether a comment group carries the given marker
// directive (e.g. "owned").
func HasMarker(cg *ast.CommentGroup, keyword string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if kw, _, ok := parseDirective(c.Text); ok && kw == keyword {
			return true
		}
	}
	return false
}

// MarkerArg returns the argument text of the given marker directive in a
// comment group (e.g. the field name after //simlint:publishes), and
// whether the marker is present at all.
func MarkerArg(cg *ast.CommentGroup, keyword string) (arg string, ok bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		if kw, rest, isDir := parseDirective(c.Text); isDir && kw == keyword {
			return rest, true
		}
	}
	return "", false
}

// AnchorLines returns the set of lines in files on which a
// finding-capable node begins: statements, struct fields, and
// declaration specs. A line-scoped directive whose two-line scope covers
// none of them cannot suppress anything and is a placement error.
func AnchorLines(fset *token.FileSet, files []*ast.File) map[*token.File]map[int]bool {
	anchors := make(map[*token.File]map[int]bool)
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf == nil {
			continue
		}
		lines, ok := anchors[tf]
		if !ok {
			lines = make(map[int]bool)
			anchors[tf] = lines
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case ast.Stmt, *ast.Field, ast.Spec:
				lines[fset.Position(n.Pos()).Line] = true
			}
			return true
		})
	}
	return anchors
}

// Anchored reports whether the directive's scope covers at least one
// finding-capable line. Doc-comment directives are anchored by
// construction (their scope is the whole declaration), and so are
// directives attached to a field or spec's comment group.
func (d Directive) Anchored(fset *token.FileSet, anchors map[*token.File]map[int]bool) bool {
	if d.Doc || d.attached {
		return true
	}
	tf := fset.File(d.Pos)
	if tf == nil {
		return false
	}
	lines := anchors[tf]
	for line := d.startLine; line <= d.endLine; line++ {
		if lines[line] {
			return true
		}
	}
	return false
}
