package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Lockguard enforces comment-declared mutex guards, the convention
// statusq.Engine documents as
//
//	mu    sync.RWMutex // guards rccs, creations and settlements
//	rccs  []domain.RCC
//
// (equivalently, a guarded field may carry `// guarded by mu`). Every
// function that reads or writes a guarded field must contain a Lock or
// RLock call on the declared mutex. Functions that construct the owning
// struct with a composite literal are exempt — a value that has not
// escaped its constructor cannot race. This machine-checks the exact
// class of unlocked-Catalog access the PR-2 race fixes removed.
var Lockguard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields documented as `guards X` / `guarded by mu` must only be accessed under that mutex",
	Run:  runLockguard,
}

var (
	guardsRe    = regexp.MustCompile(`\bguards\s+(.+)`)
	guardedByRe = regexp.MustCompile(`\bguarded by\s+(\w+)`)
)

// guardDecl records one guarded field: which mutex protects it and which
// struct owns both.
type guardDecl struct {
	mutex *types.Var
	owner *types.TypeName
}

func runLockguard(p *Pass) {
	guards := map[*types.Var]guardDecl{}
	mutexes := map[*types.Var]bool{}
	for _, f := range p.Pkg.Files {
		collectGuards(p, f, guards, mutexes)
	}
	if len(guards) == 0 {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if callerHoldsRe.MatchString(fn.Doc.Text()) {
				// A lock-held helper: its doc transfers the locking
				// obligation to the call sites, which the analyzer does
				// check (they contain the Lock call or the constructor).
				continue
			}
			checkGuardedAccesses(p, fn, guards, mutexes)
		}
	}
}

// callerHoldsRe recognizes the doc-comment annotation that marks a
// helper as requiring its caller to hold the guarding mutex, e.g.
// "Callers hold d.mu." — the in-tree equivalent of a REQUIRES clause.
var callerHoldsRe = regexp.MustCompile(`(?i)\bcallers? (must )?hold`)

// collectGuards parses struct field comments into the guard table.
func collectGuards(p *Pass, f *ast.File, guards map[*types.Var]guardDecl, mutexes map[*types.Var]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		owner, _ := p.Pkg.Info.Defs[ts.Name].(*types.TypeName)
		if owner == nil {
			return true
		}
		// Field objects by name, for resolving `guards a and b` lists.
		// Embedded fields register under their promoted name so both a
		// `guards` comment on the embedded mutex and a `guarded by Mutex`
		// reference to it resolve.
		fieldObj := map[string]*types.Var{}
		for _, field := range st.Fields.List {
			if len(field.Names) == 0 {
				if v := embeddedFieldVar(owner, field); v != nil {
					fieldObj[v.Name()] = v
				}
				continue
			}
			for _, name := range field.Names {
				if v, ok := p.Pkg.Info.Defs[name].(*types.Var); ok {
					fieldObj[name.Name] = v
				}
			}
		}
		for _, field := range st.Fields.List {
			text := strings.TrimSpace(field.Doc.Text() + " " + field.Comment.Text())
			if text == "" {
				continue
			}
			var self *types.Var
			if len(field.Names) > 0 {
				self = fieldObj[field.Names[0].Name]
			} else {
				// Embedded field (e.g. a bare `sync.Mutex // guards n`):
				// there is no name Ident in Defs, so recover the implicit
				// field var from the owner's struct type by position.
				self = embeddedFieldVar(owner, field)
			}
			if self == nil {
				continue
			}
			if m := guardsRe.FindStringSubmatch(text); m != nil {
				for _, g := range parseGuardList(m[1], fieldObj) {
					guards[g] = guardDecl{mutex: self, owner: owner}
					mutexes[self] = true
				}
			}
			if m := guardedByRe.FindStringSubmatch(text); m != nil {
				if mu := fieldObj[m[1]]; mu != nil {
					guards[self] = guardDecl{mutex: mu, owner: owner}
					mutexes[mu] = true
				}
			}
		}
		return true
	})
}

// embeddedFieldVar resolves the implicit *types.Var of an embedded
// struct field by matching source positions against the owner's checked
// struct type (the AST carries no name Ident for it).
func embeddedFieldVar(owner *types.TypeName, field *ast.Field) *types.Var {
	st, ok := owner.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		v := st.Field(i)
		if v.Embedded() && field.Pos() <= v.Pos() && v.Pos() <= field.End() {
			return v
		}
	}
	return nil
}

// parseGuardList resolves the field names following `guards`, tolerating
// commas, "and", and trailing prose (the list stops at the first token
// that is not a sibling field).
func parseGuardList(list string, fieldObj map[string]*types.Var) []*types.Var {
	var out []*types.Var
	for _, tok := range strings.FieldsFunc(list, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\n'
	}) {
		if tok == "and" {
			continue
		}
		v, ok := fieldObj[tok]
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

// checkGuardedAccesses verifies one top-level function (closures included
// in its scope: a lock taken in the enclosing function covers them).
func checkGuardedAccesses(p *Pass, fn *ast.FuncDecl, guards map[*types.Var]guardDecl, mutexes map[*types.Var]bool) {
	type access struct {
		pos   token.Pos
		field *types.Var
	}
	var accesses []access
	locked := map[*types.Var]bool{}
	constructed := map[*types.TypeName]bool{}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if v, ok := p.Pkg.Info.Uses[x.Sel].(*types.Var); ok {
				if _, guarded := guards[v]; guarded {
					accesses = append(accesses, access{x.Sel.Pos(), v})
				}
			}
		case *ast.CallExpr:
			// recv.mu.Lock() / recv.mu.RLock(), or the promoted form
			// t.Lock() on an embedded mutex — lockCallTarget resolves
			// both to the declared mutex field.
			if mu, _, op, ok := lockCallTarget(p.Pkg, x); ok &&
				(op == "Lock" || op == "RLock") && mutexes[mu] {
				locked[mu] = true
			}
		case *ast.CompositeLit:
			if n, ok := namedOf(p.TypeOf(x)); ok {
				constructed[n.Obj()] = true
			}
		}
		return true
	})

	for _, a := range accesses {
		g := guards[a.field]
		if locked[g.mutex] || constructed[g.owner] {
			continue
		}
		p.Reportf(a.pos, "%s.%s is guarded by %s; %s accesses it without locking",
			g.owner.Name(), a.field.Name(), g.mutex.Name(), fn.Name.Name)
	}
}
