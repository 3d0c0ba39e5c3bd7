package lint

import (
	"go/ast"
	"go/types"
)

// Goleak flags goroutines started with no join or cancellation path.
// Every `go` statement must be tied to its parent's lifetime through at
// least one of the conventions the tree already uses:
//
//   - a sync.WaitGroup: the goroutine (or a function it calls) invokes
//     Done, and the spawner Waits;
//   - a channel: the goroutine sends, receives, closes, selects, or
//     ranges — some signal another goroutine can join on;
//   - a context.Context: the goroutine observes cancellation (holds a
//     ctx value, typically via <-ctx.Done()).
//
// A goroutine with none of these outlives every caller silently — the
// exact shape of the pre-fix pprof listener in cmd/domd, which kept
// serving after graceful shutdown with no way to observe its error. The
// check is interprocedural: a literal body that calls a helper which
// signals a WaitGroup is joined, and `go f()` is judged by f's
// transitive effects on the call graph.
var Goleak = &Analyzer{
	Name:      "goleak",
	Doc:       "goroutines must have a join or cancellation path (WaitGroup, channel, or context)",
	RunModule: runGoleak,
}

// leakEffects is the per-function join-signal summary.
type leakEffects uint8

const (
	effWGDone leakEffects = 1 << iota // calls sync.WaitGroup.Done
	effChan                           // channel send/receive/close/select/range
	effCtx                            // holds a context.Context value
)

func runGoleak(p *ModulePass) {
	g := p.Graph
	// Per-node own effects and callees, both excluding nested goroutine
	// bodies: what a spawned goroutine does is its own business, not a
	// join signal its spawner's callers can rely on.
	own := map[*Node]leakEffects{}
	calls := map[*Node][]*Node{}
	for _, n := range g.Nodes() {
		node := n
		eff := leakEffects(0)
		inspectOutsideGo(node.Decl.Body, func(x ast.Node) bool {
			eff |= ownLeakEffects(node.Pkg, x)
			if call, isCall := x.(*ast.CallExpr); isCall {
				for _, rc := range g.resolve(node.Pkg, call) {
					calls[node] = append(calls[node], rc.node)
				}
			}
			return true
		})
		own[node] = eff
	}
	summary := map[*Node]leakEffects{}
	g.Fixpoint(func(n *Node) bool {
		eff := summary[n] | own[n]
		for _, callee := range calls[n] {
			eff |= summary[callee]
		}
		if eff == summary[n] {
			return false
		}
		summary[n] = eff
		return true
	})
	// Judge every go statement, including ones nested in goroutine
	// bodies — each spawn needs its own join path.
	for _, n := range g.Nodes() {
		node := n
		ast.Inspect(node.Decl.Body, func(x ast.Node) bool {
			gs, isGo := x.(*ast.GoStmt)
			if !isGo {
				return true
			}
			if spawnEffects(p, g, node.Pkg, gs, summary) == 0 {
				p.Reportf(gs.Pos(),
					"goroutine started with no join or cancellation path (no WaitGroup.Done, channel operation, or context in its body or callees)")
			}
			return true
		})
	}
}

// spawnEffects computes the join-signal effects of one go statement's
// target: a literal's body is scanned directly (plus its callees'
// summaries), a named target contributes its call-graph summary, and
// channel- or context-typed arguments passed into the spawn count as a
// handle the goroutine can be joined through.
func spawnEffects(p *ModulePass, g *CallGraph, pkg *Package, gs *ast.GoStmt, summary map[*Node]leakEffects) leakEffects {
	eff := leakEffects(0)
	for _, arg := range gs.Call.Args {
		eff |= valueLeakEffects(p.TypeOf(pkg, arg))
	}
	if lit, isLit := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); isLit {
		inspectOutsideGo(lit.Body, func(x ast.Node) bool {
			eff |= ownLeakEffects(pkg, x)
			if call, isCall := x.(*ast.CallExpr); isCall {
				for _, rc := range g.resolve(pkg, call) {
					eff |= summary[rc.node]
				}
			}
			return true
		})
		return eff
	}
	for _, rc := range g.resolve(pkg, gs.Call) {
		eff |= summary[rc.node]
	}
	return eff
}

// ownLeakEffects classifies one AST node as a direct join signal.
func ownLeakEffects(pkg *Package, x ast.Node) leakEffects {
	switch x := x.(type) {
	case *ast.SendStmt, *ast.SelectStmt:
		return effChan
	case *ast.UnaryExpr:
		if x.Op.String() == "<-" {
			return effChan
		}
	case *ast.RangeStmt:
		if tv, has := pkg.Info.Types[x.X]; has {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return effChan
			}
		}
	case *ast.CallExpr:
		if id, isIdent := ast.Unparen(x.Fun).(*ast.Ident); isIdent && id.Name == "close" {
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				return effChan
			}
		}
		if sel, isSel := ast.Unparen(x.Fun).(*ast.SelectorExpr); isSel && sel.Sel.Name == "Done" {
			if selection := pkg.Info.Selections[sel]; selection != nil &&
				selection.Kind() == types.MethodVal &&
				namedIs(selection.Recv(), "sync", "WaitGroup") {
				return effWGDone
			}
		}
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil {
			return valueLeakEffects(obj.Type())
		}
	}
	return 0
}

// valueLeakEffects maps a value's type to the join handle it represents:
// holding a context is a cancellation path, holding a channel is a
// joinable signal.
func valueLeakEffects(t types.Type) leakEffects {
	if t == nil {
		return 0
	}
	if namedIs(t, "context", "Context") {
		return effCtx
	}
	if _, isChan := t.Underlying().(*types.Chan); isChan {
		return effChan
	}
	return 0
}
