package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text    string
		keyword string
		reason  string
		ok      bool
	}{
		{"//simlint:irreversible stats are write-only", "irreversible", "stats are write-only", true},
		{"//simlint:owned", "owned", "", true},
		{"//simlint:crosspe", "crosspe", "", true},
		{"// simlint:crosspe spaced prefix is not a directive", "", "", false},
		{"// plain comment", "", "", false},
	}
	for _, c := range cases {
		kw, reason, ok := parseDirective(c.text)
		if ok != c.ok || kw != c.keyword || reason != c.reason {
			t.Errorf("parseDirective(%q) = %q, %q, %v; want %q, %q, %v",
				c.text, kw, reason, ok, c.keyword, c.reason, c.ok)
		}
	}
}

const directiveSrc = `package p

// doc comment
//
//simlint:deterministic whole function is waived
func waived() {
	x := 1
	_ = x
}

func partial() {
	a := 1 //simlint:irreversible same line
	//simlint:crosspe next line
	b := 2
	_, _ = a, b
	c := 3
	_ = c
}
`

func TestDirectiveScopes(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := indexDirectives(fset, []*ast.File{f})

	posAt := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}
	cases := []struct {
		line    int
		keyword string
		want    bool
	}{
		{7, "deterministic", true}, // x := 1, inside waived func doc scope
		{8, "deterministic", true}, // _ = x
		{12, "irreversible", true}, // same-line annotation
		{14, "crosspe", true},      // line below annotation
		{16, "crosspe", false},     // two lines below: out of scope
		{7, "irreversible", false}, // wrong keyword
	}
	usage := NewDirectiveUsage()
	for _, c := range cases {
		if got := idx.suppressed(fset, posAt(c.line), c.keyword, usage); got != c.want {
			t.Errorf("suppressed(line %d, %s) = %v, want %v", c.line, c.keyword, got, c.want)
		}
	}
	// Every directive in the source matched at least one query above, so
	// all three must now be marked used.
	for _, d := range Directives(fset, []*ast.File{f}) {
		if !usage.Used(d.Pos) {
			t.Errorf("directive //simlint:%s at %s not marked used", d.Keyword, fset.Position(d.Pos))
		}
	}
}
