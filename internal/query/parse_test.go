package query

import (
	"errors"
	"testing"
)

// TestQueryParseGolden pins the parsed AST for representative inputs.
// The expected strings are the canonical s-expression rendering, with
// terms already analyzed (stemmed): turbines→turbin, panels→panel, …
func TestQueryParseGolden(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"cats", "cat"},
		{"cats dogs", "(AND cat dog)"},
		{"cats AND dogs", "(AND cat dog)"},
		{"cats OR dogs", "(OR cat dog)"},
		{"cats OR dogs OR mice", "(OR cat dog mice)"},
		{`"red apples"`, `"red appl"`},
		{`"sunlight"`, "sunlight"}, // one-term phrase degrades to a term
		{"wind-turbine", "(AND wind turbin)"},
		{"(cats OR dogs) mice", "(AND (OR cat dog) mice)"},
		{"cats (dogs OR mice)", "(AND cat (OR dog mice))"},
		{"cats -dogs", "(AND cat (NOT dog))"},
		{"cats -dogs -mice", "(AND cat (NOT dog) (NOT mice))"},
		{`cats -"red apples"`, `(AND cat (NOT "red appl"))`},
		{"cats -(dogs OR mice)", "(AND cat (NOT (OR dog mice)))"},
		{"site:dweb://a/ cats", "(AND site:dweb://a/ cat)"},
		{"cats -site:dweb://a/", "(AND cat (NOT site:dweb://a/))"},
		{
			`solar "wind turbine" OR panels -nuclear site:dweb://energy/`,
			`(OR (AND solar "wind turbin") (AND panel (NOT nuclear) site:dweb://energy/))`,
		},
		// Stopwords drop out of the tree without changing its shape.
		{"the cats", "cat"},
		{"cats the dogs", "(AND cat dog)"},
		{"-the cats", "cat"}, // excluding a stopword excludes nothing
		{"the OR cats", "cat"},
		// Lowercase or/and are stopwords, not operators — flat queries
		// keep their historical meaning.
		{"cats or dogs", "(AND cat dog)"},
		{"cats and dogs", "(AND cat dog)"},
	}
	for _, tc := range cases {
		root, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", tc.in, err)
			continue
		}
		if got := root.String(); got != tc.want {
			t.Errorf("Parse(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestQueryParseMalformed(t *testing.T) {
	cases := []struct {
		in   string
		want error
	}{
		{"", ErrEmptyQuery},
		{"   ", ErrEmptyQuery},
		{"the of and", ErrEmptyQuery},
		{"()", ErrEmptyQuery},
		{`"unterminated`, ErrBadSyntax},
		{"cats OR", ErrBadSyntax},
		{"OR cats", ErrBadSyntax},
		{"cats OR OR dogs", ErrBadSyntax},
		{"cats AND", ErrBadSyntax},
		{"AND cats", ErrBadSyntax},
		{"cats AND AND dogs", ErrBadSyntax},
		{"cats -", ErrBadSyntax},
		{"cats - dogs", ErrBadSyntax},
		{"(cats", ErrBadSyntax},
		{"cats)", ErrBadSyntax},
		{"site:", ErrBadSyntax},
		// Structurally valid but unexecutable: nothing positive to
		// intersect against.
		{"-cats", ErrBadSyntax},
		{"-cats -dogs", ErrBadSyntax},
		{"site:dweb://a/", ErrBadSyntax},
		{"cats OR -dogs", ErrBadSyntax},
		{"cats OR site:dweb://a/", ErrBadSyntax},
	}
	for _, tc := range cases {
		root, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q) = %s, want error %v", tc.in, root, tc.want)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("Parse(%q) error = %v, want %v", tc.in, err, tc.want)
		}
	}
}

func TestQueryTermsCollection(t *testing.T) {
	root, err := Parse(`solar "wind turbine" -nuclear site:dweb://energy/ OR wind`)
	if err != nil {
		t.Fatal(err)
	}
	all, positive := Terms(root)
	wantAll := []string{"solar", "wind", "turbin", "nuclear"}
	wantPos := []string{"solar", "wind", "turbin"}
	if !eqStrings(all, wantAll) {
		t.Errorf("all terms = %v, want %v", all, wantAll)
	}
	if !eqStrings(positive, wantPos) {
		t.Errorf("positive terms = %v, want %v", positive, wantPos)
	}
	if !HasSite(root) {
		t.Error("HasSite = false, want true")
	}
	plain, err := Parse("cats dogs")
	if err != nil {
		t.Fatal(err)
	}
	if HasSite(plain) {
		t.Error("HasSite(plain) = true, want false")
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzParse: query strings arrive from any HTTP client. Parse never
// panics, every error it returns is one of the two typed sentinels, and
// an AST it accepts has a positive term to score — what the planner
// relies on.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"cats", `"red apples" -nuclear`, "(cats OR dogs) mice", "site:dweb://a/ cats",
		"cats -(dogs OR mice)", "the OR cats", "OR cats", "cats AND", `"unterminated`,
		"-", "site:", "cats )", "((cats)", "-cats", "", "the a an",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		root, err := Parse(s)
		if err != nil {
			if !errors.Is(err, ErrBadSyntax) && !errors.Is(err, ErrEmptyQuery) {
				t.Fatalf("Parse(%q) = %v, want ErrBadSyntax or ErrEmptyQuery", s, err)
			}
			return
		}
		if _, positive := Terms(root); len(positive) == 0 {
			t.Fatalf("Parse(%q) accepted %s with no positive term", s, root)
		}
	})
}
