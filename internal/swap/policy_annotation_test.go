package swap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestAcceptancePoliciesStayAnnotated pins the //nullgraph:hotpath
// directive on the functions that carry the per-space acceptance rules:
// the parallel sweep (which branches on the rule), its instrumented
// duplicate test, the register body, the directed chain's triangle
// phase, the ordered arc key, and the proposal rewiring. The
// hotpathalloc analyzer only inspects annotated functions, so dropping
// a directive silently removes the alloc-free gate from that code; this
// test turns that into a loud failure. stepVertex is intentionally
// absent — the vertex-labeled MH sweep is serial and map-backed by
// design (see the policy.go file doc).
func TestAcceptancePoliciesStayAnnotated(t *testing.T) {
	want := []string{"sweep", "rejectProbed", "register", "triangles", "arcKey", "rewirePair"}
	fset := token.NewFileSet()
	annotated := map[string]bool{}
	for _, name := range []string{"swap.go", "policy.go"} {
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if strings.TrimSpace(c.Text) == "//nullgraph:hotpath" {
					annotated[fn.Name.Name] = true
				}
			}
		}
	}
	for _, name := range want {
		if !annotated[name] {
			t.Errorf("%s lost its //nullgraph:hotpath directive; the hotpathalloc gate no longer covers it", name)
		}
	}
}
