package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// FingerprintComplete closes the "new option silently aliases into an
// existing pool key" hole. internal/serve keys sample batches by a
// fingerprint of (degree distribution, options) and pools engines by
// the same fingerprint of the options alone; any sampling-relevant
// input that the fingerprint function fails to consume merges requests
// that should not share a chain — PR 8 had to remember to fold in
// Options.Space by hand, and nothing would have caught forgetting.
//
// The fingerprint function opts in with //nullgraph:fingerprint in its
// doc comment. For every parameter whose type is (a pointer to) a
// same-module named struct, each exported field must either be read
// somewhere in the function body (a selector on any value of that
// struct type) or carry an explicit //nullgraph:nofingerprint <reason>
// annotation in its doc comment at the definition site. The requirement
// is transitive: a consumed field whose own type is a same-module named
// struct (behind pointers and slices — e.g. Options.StopPolicy,
// Distribution.Classes) pulls that struct's exported fields into the
// requirement set too, so adding a knob to converge.Policy without
// hashing it is as loud as adding one to Options.
//
// The nofingerprint annotations live in other packages (the Options
// struct is in the module root; the fingerprint function in
// internal/serve), which is what the session fact store exists for: a
// Facts pass over every loaded package records the annotated fields
// before diagnostics run. An annotation without a reason is itself a
// finding — the reason is the reviewable claim that the field cannot
// change what is sampled.
//
// A package inside the analyzer's driver scope that declares no
// fingerprint function at all is reported too: deleting the annotation
// must not silently disable the check.
var FingerprintComplete = &Analyzer{
	Name: "fingerprintcomplete",
	Doc:  "//nullgraph:fingerprint functions must consume every exported field of their struct inputs (or the field carries //nullgraph:nofingerprint <reason>)",
	AppliesTo: func(pkgPath string) bool {
		return pkgPath == "nullgraph/internal/serve"
	},
	Facts: gatherNoFingerprintFacts,
	Run:   runFingerprintComplete,
}

// noFingerprintFact is the fact name recording a field's exemption
// reason (empty reason = annotation present but reasonless).
const noFingerprintFact = "nofingerprint"

// gatherNoFingerprintFacts records every struct field annotated
// //nullgraph:nofingerprint, keyed "pkgpath.Type.Field".
func gatherNoFingerprintFacts(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, field := range st.Fields.List {
					reason, ok := directiveArgs(field.Doc, "nofingerprint")
					if !ok {
						continue
					}
					for _, name := range field.Names {
						key := pass.Pkg.Path() + "." + ts.Name.Name + "." + name.Name
						pass.Session.Facts.Put(key, noFingerprintFact, reason)
					}
				}
			}
		}
	}
}

func runFingerprintComplete(pass *Pass) {
	found := false
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "fingerprint") {
				continue
			}
			found = true
			checkFingerprintFunc(pass, fd)
		}
	}
	if !found && len(pass.Files) > 0 {
		// Report at the package clause of the first file: the package is
		// in scope precisely because it is supposed to own a fingerprint.
		pass.Reportf(pass.Files[0].Name.Pos(), "package %s has no //nullgraph:fingerprint function: the pool-key completeness check is disabled; annotate the fingerprint function", pass.Pkg.Path())
	}
}

// checkFingerprintFunc verifies one annotated function consumes its
// struct inputs completely.
func checkFingerprintFunc(pass *Pass, fd *ast.FuncDecl) {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	modSeg := modSegment(pass.Pkg.Path())

	// consumed holds every struct field the body reads, as *types.Var.
	consumed := map[*types.Var]bool{}
	for sel, selection := range pass.Info.Selections {
		if sel.Pos() < fd.Body.Pos() || sel.End() > fd.Body.End() {
			continue
		}
		if selection.Kind() != types.FieldVal {
			continue
		}
		if v, ok := selection.Obj().(*types.Var); ok {
			consumed[v] = true
		}
	}

	// The requirement set: parameter struct types, then transitively the
	// same-module struct types behind consumed struct-typed fields.
	seen := map[*types.Named]bool{}
	var queue []*types.Named
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		for _, n := range reachableStructs(params.At(i).Type(), modSeg) {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}

	type miss struct {
		key    string
		reason string // non-empty when annotated without a reason
	}
	var misses []miss
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			key := n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
			if reason, annotated := pass.Session.Facts.Get(key, noFingerprintFact); annotated {
				if reason == "" {
					misses = append(misses, miss{key: key, reason: "annotated //nullgraph:nofingerprint without a reason: state why the field cannot change what is sampled"})
				}
				continue
			}
			if !consumed[f] {
				misses = append(misses, miss{key: key})
				continue
			}
			// Consumed struct-typed fields extend the requirement set.
			for _, next := range reachableStructs(f.Type(), modSeg) {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
	}

	sort.Slice(misses, func(i, j int) bool { return misses[i].key < misses[j].key })
	for _, m := range misses {
		if m.reason != "" {
			pass.Reportf(fd.Name.Pos(), "%s is %s", m.key, m.reason)
			continue
		}
		pass.Reportf(fd.Name.Pos(), "%s is not consumed by fingerprint function %s: hash it (and bump the fingerprint version) or annotate the field //nullgraph:nofingerprint <reason>", m.key, fd.Name.Name)
	}
}
