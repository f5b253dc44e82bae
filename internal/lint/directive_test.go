package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text     string
		analyzer string // "" means: not a directive
		reason   string
	}{
		{"//lint:allow tickconv reason words", "tickconv", "reason words"},
		{"//lint:allow tickconv", "tickconv", ""},
		{"//lint:allow\ttickconv\ttabbed justification", "tickconv", "tabbed justification"},
		{"//lint:allow tickconv reason // trailing comment ignored", "tickconv", "reason"},
		{"//lint:allow tickconv // only a trailing comment", "tickconv", ""},
		{"//lint:allow  tickconv   collapsed   spacing", "tickconv", "collapsed spacing"},
		{"//lint:allowfoo tickconv smushed prefix", "", ""},
		{"//lint:allow", "", ""},
		{"//lint:allow // no analyzer at all", "", ""},
		{"// ordinary comment", "", ""},
		{"//lint:zone deterministic", "", ""},
	}
	for _, c := range cases {
		d := parseDirective(token.Position{}, c.text)
		if c.analyzer == "" {
			if d != nil {
				t.Errorf("parseDirective(%q) = %+v, want nil", c.text, d)
			}
			continue
		}
		if d == nil {
			t.Errorf("parseDirective(%q) = nil, want analyzer %q", c.text, c.analyzer)
			continue
		}
		if d.Analyzer != c.analyzer || d.Reason != c.reason {
			t.Errorf("parseDirective(%q) = (%q, %q), want (%q, %q)",
				c.text, d.Analyzer, d.Reason, c.analyzer, c.reason)
		}
	}
}

func TestParseZoneDirective(t *testing.T) {
	cases := []struct {
		text string
		name string
		ok   bool
	}{
		{"//lint:zone deterministic", "deterministic", true},
		{"//lint:zone host", "host", true},
		{"//lint:zone\thost", "host", true},
		{"//lint:zone deterministic // trailing comment ignored", "deterministic", true},
		// Recognised but malformed: the caller must diagnose these rather
		// than silently ignore a zoning mistake.
		{"//lint:zone", "", true},
		{"//lint:zone deterministic host", "", true},
		{"//lint:zone // comment only", "", true},
		// Not zone directives at all.
		{"//lint:zoned deterministic", "", false},
		{"//lint:allow tickconv x", "", false},
		{"// plain comment", "", false},
	}
	for _, c := range cases {
		name, ok := parseZoneDirective(c.text)
		if name != c.name || ok != c.ok {
			t.Errorf("parseZoneDirective(%q) = (%q, %v), want (%q, %v)",
				c.text, name, ok, c.name, c.ok)
		}
	}
}

// parseTestFile parses src and returns its fileset and AST for directive and
// zone collection.
func parseTestFile(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestDirectiveSetMatch(t *testing.T) {
	src := `package x

func a() {
	f() //lint:allow tickconv trailing directive
	//lint:allow maporder directive above
	g()
	h()
}

//lint:allow wallclock stacked above
func b() { i() } //lint:allow errpanic trailing on the same line
`
	fset, f := parseTestFile(t, src)
	set := collectDirectives(fset, []*ast.File{f})

	at := func(line int) token.Position { return token.Position{Filename: "x.go", Line: line} }

	if set.match(at(4), "tickconv") == nil {
		t.Error("trailing directive did not cover its own line")
	}
	if set.match(at(6), "maporder") == nil {
		t.Error("directive above did not cover the next line")
	}
	if set.match(at(7), "maporder") != nil {
		t.Error("directive leaked two lines down")
	}
	if set.match(at(4), "maporder") != nil {
		t.Error("directive matched the wrong analyzer")
	}
	// Two directives covering one line, for different analyzers: one
	// stacked above, one trailing.
	if set.match(at(11), "wallclock") == nil || set.match(at(11), "errpanic") == nil {
		t.Error("stacked and trailing directives did not both cover line 11")
	}
}

func TestCollectZonesDirectives(t *testing.T) {
	src := `//lint:zone host
package x

//lint:zone deterministic
func a() {}

//lint:zone host
func b() {}

func c() {}
`
	fset, f := parseTestFile(t, src)
	zi, diags := collectZones(fset, []*ast.File{f}, "example.com/x")
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if zi.pkg != ZoneHost {
		t.Errorf("package zone = %q, want host", zi.pkg)
	}
	zones := map[string]Zone{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok {
			zones[fn.Name.Name] = zi.funcZone(fn)
		}
	}
	if zones["a"] != ZoneDeterministic || zones["b"] != ZoneHost || zones["c"] != ZoneHost {
		t.Errorf("func zones = %v", zones)
	}
}

func TestCollectZonesDefaultMap(t *testing.T) {
	src := "package sim\n\nfunc a() {}\n"
	fset, f := parseTestFile(t, src)
	zi, diags := collectZones(fset, []*ast.File{f}, "repro/internal/sim")
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if zi.pkg != ZoneDeterministic {
		t.Errorf("package zone for repro/internal/sim = %q, want deterministic", zi.pkg)
	}
	zi, _ = collectZones(fset, []*ast.File{f}, "repro/internal/report")
	if zi.pkg != ZoneNone {
		t.Errorf("package zone for repro/internal/report = %q, want none", zi.pkg)
	}
}

func TestCollectZonesDiagnostics(t *testing.T) {
	src := `//lint:zone warp
package x

//lint:zone deterministic host
func a() {}

func b() {
	//lint:zone deterministic
	_ = 1
}
`
	fset, f := parseTestFile(t, src)
	_, diags := collectZones(fset, []*ast.File{f}, "example.com/x")
	var msgs []string
	for _, d := range diags {
		if d.Analyzer != "zone" {
			t.Errorf("diagnostic under analyzer %q, want zone", d.Analyzer)
		}
		msgs = append(msgs, d.Message)
	}
	if len(msgs) != 3 {
		t.Fatalf("got %d diagnostics %v, want 3", len(msgs), msgs)
	}
	for i, want := range []string{"unknown zone", "unknown zone", "misplaced"} {
		if !strings.Contains(msgs[i], want) {
			t.Errorf("diagnostic %d = %q, want it to mention %q", i, msgs[i], want)
		}
	}
}
