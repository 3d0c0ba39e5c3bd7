package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Ackorder enforces the PR-4 log-before-ack durability contract,
// interprocedurally: on any path that appends to the WAL, nothing that
// acknowledges the record — writing a 2xx response or recording it in
// durable dedup/ack state — may happen before the append completes. A
// crash in the reordered window acknowledges a record the log never
// saw, which replay then cannot restore: the exact-computation
// guarantee the paper's framework rests on silently loses an RCC.
//
// Effects are summarized per function and propagated over the call
// graph, so the violation is caught wherever it is split across
// helpers: a handler that calls writeJSON(w, http.StatusOK) before
// calling an Ingest that appends, or an ingest method whose dedup-mark
// helper runs before the append.
//
// Durable state is defined structurally: any struct with a WAL-handle
// field is a durable owner, and its other fields are ack state. A WAL
// handle is a Log or ReplicatedLog declared in a package with a "wal"
// path segment, or an interface that declares Append and is satisfied
// by one of those (a caller narrowing the WAL to its append surface).
// Structs without a WAL handle acknowledge without durability by design
// and are exempt.
// Functions that construct the durable owner (composite literal) are
// exempt too: restore/replay populates state from the log rather than
// ahead of it.
//
// Replication moves the durability point (PR-9): when an owner holds a
// replica set — several handle fields, or a slice of handles — one
// member's append is not durability, quorum confirmation is. Appending
// to a single member leaves the record quorum-pending; a 2xx response
// or durable-state mutation while quorum is pending is flagged even if
// no further append follows on that path. The fan-out — appends issued
// by ranging over the replica-set field — is the point where the
// pending quorum resolves.
var Ackorder = &Analyzer{
	Name:      "ackorder",
	Doc:       "no 2xx ack or durable-state mutation may precede the WAL append, or quorum confirmation on a replicated set (log-before-ack)",
	RunModule: runAckorder,
}

// ackEffects is the per-function summary for the ordering check.
type ackEffects uint8

const (
	ackMayAppend       ackEffects = 1 << iota // may reach a wal-handle Append
	ackMayWriteHeader                         // may reach ResponseWriter.WriteHeader
	ackMayAck2xx                              // may write a constant-2xx response
	ackMayMutate                              // may mutate durable ack state
	ackMayMemberAppend                        // may append to one member of a quorum replica set
	ackMayQuorumAppend                        // may run the quorum fan-out over a replica set
)

type ackState struct {
	pass *ModulePass
	// walLogs are the concrete wal log types (Log, ReplicatedLog) used
	// to decide which Append-declaring interfaces count as WAL handles.
	walLogs []types.Type
	// durableFields maps each ack-state field (non-handle fields of a
	// struct that also holds a WAL handle) to true.
	durableFields map[*types.Var]bool
	// durableOwners are the structs holding a WAL handle, for the
	// constructor exemption.
	durableOwners map[*types.TypeName]bool
	// quorumMembers are scalar handle fields of quorum owners (e.g. a
	// primary): appending through one leaves quorum pending.
	quorumMembers map[*types.Var]bool
	// quorumSets are slice/array-of-handle fields of quorum owners (the
	// follower set): ranging over one and appending is the fan-out that
	// confirms quorum.
	quorumSets map[*types.Var]bool
	// fanouts are the source spans of range-statement bodies iterating a
	// quorum set, per function: appends inside them are quorum appends.
	fanouts map[*Node][][2]token.Pos
	calls   map[*Node][]callSite
	summary map[*Node]ackEffects
}

type callSite struct {
	callee *Node
	site   token.Pos
}

func runAckorder(p *ModulePass) {
	st := &ackState{
		pass:          p,
		durableFields: map[*types.Var]bool{},
		durableOwners: map[*types.TypeName]bool{},
		quorumMembers: map[*types.Var]bool{},
		quorumSets:    map[*types.Var]bool{},
		fanouts:       map[*Node][][2]token.Pos{},
		calls:         map[*Node][]callSite{},
		summary:       map[*Node]ackEffects{},
	}
	st.collectDurable()
	for _, n := range p.Graph.Nodes() {
		node := n
		inspectOutsideGo(node.Decl.Body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.CallExpr:
				for _, rc := range p.Graph.resolve(node.Pkg, x) {
					st.calls[node] = append(st.calls[node], callSite{rc.node, x.Pos()})
				}
			case *ast.RangeStmt:
				if st.isQuorumSetExpr(node.Pkg, x.X) {
					st.fanouts[node] = append(st.fanouts[node], [2]token.Pos{x.Body.Pos(), x.Body.End()})
				}
			}
			return true
		})
	}
	// Stage 1: who can reach WriteHeader — needed before constant-2xx
	// call sites can be classified as acks.
	p.Graph.Fixpoint(func(n *Node) bool {
		eff := st.summary[n]
		if st.ownWriteHeader(n) {
			eff |= ackMayWriteHeader
		}
		for _, c := range st.calls[n] {
			eff |= st.summary[c.callee] & ackMayWriteHeader
		}
		if eff == st.summary[n] {
			return false
		}
		st.summary[n] = eff
		return true
	})
	// Stage 2: append / ack / mutate summaries (ack sites depend on
	// stage 1's WriteHeader reachability).
	p.Graph.Fixpoint(func(n *Node) bool {
		eff := st.summary[n] | st.ownOrderEffects(n)
		for _, c := range st.calls[n] {
			eff |= st.summary[c.callee] &
				(ackMayAppend | ackMayAck2xx | ackMayMutate | ackMayMemberAppend | ackMayQuorumAppend)
		}
		if eff == st.summary[n] {
			return false
		}
		st.summary[n] = eff
		return true
	})
	for _, n := range p.Graph.Nodes() {
		if st.constructsDurable(n) {
			continue
		}
		w := &ackWalker{st: st, node: n}
		w.walk(n.Decl.Body)
	}
}

// collectDurable finds every struct holding a WAL handle and marks its
// other fields as durable ack state. Owners whose handles form a
// replica set — several scalar handles, or a slice of handles — are
// quorum owners: their handle fields feed the member/fan-out
// classification.
func (st *ackState) collectDurable() {
	// Pass 1: the concrete wal log types, so Append-declaring interfaces
	// can be tested against them.
	for _, pkg := range st.pass.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, isType := scope.Lookup(name).(*types.TypeName)
			if !isType || tn.IsAlias() || tn.Pkg() == nil {
				continue
			}
			if (tn.Name() == "Log" || tn.Name() == "ReplicatedLog") &&
				pathHasSegment(tn.Pkg().Path(), "wal") {
				if _, isStruct := tn.Type().Underlying().(*types.Struct); isStruct {
					st.walLogs = append(st.walLogs, tn.Type())
				}
			}
		}
	}
	// Pass 2: durable owners and their field roles.
	for _, pkg := range st.pass.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, isType := scope.Lookup(name).(*types.TypeName)
			if !isType || tn.IsAlias() {
				continue
			}
			str, isStruct := tn.Type().Underlying().(*types.Struct)
			if !isStruct {
				continue
			}
			var handles, sets []int
			for i := 0; i < str.NumFields(); i++ {
				switch t := str.Field(i).Type(); {
				case st.isWALHandle(t):
					handles = append(handles, i)
				case st.isWALHandleSlice(t):
					sets = append(sets, i)
				}
			}
			if len(handles)+len(sets) == 0 {
				continue
			}
			st.durableOwners[tn] = true
			quorum := len(sets) > 0 || len(handles) >= 2
			walField := map[int]bool{}
			for _, i := range handles {
				walField[i] = true
				if quorum {
					st.quorumMembers[str.Field(i)] = true
				}
			}
			for _, i := range sets {
				walField[i] = true
				if quorum {
					st.quorumSets[str.Field(i)] = true
				}
			}
			for i := 0; i < str.NumFields(); i++ {
				if !walField[i] {
					st.durableFields[str.Field(i)] = true
				}
			}
		}
	}
}

// isWALHandle reports whether t is (a pointer to) a wal log type — Log
// or ReplicatedLog declared in a package with a "wal" path segment — or
// an interface that declares Append and is satisfied by one.
func (st *ackState) isWALHandle(t types.Type) bool {
	if n, isNamed := namedOf(t); isNamed && n.Obj().Pkg() != nil &&
		(n.Obj().Name() == "Log" || n.Obj().Name() == "ReplicatedLog") &&
		pathHasSegment(n.Obj().Pkg().Path(), "wal") {
		return true
	}
	iface, isIface := t.Underlying().(*types.Interface)
	if !isIface {
		return false
	}
	declaresAppend := false
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "Append" {
			declaresAppend = true
			break
		}
	}
	if !declaresAppend {
		return false
	}
	for _, log := range st.walLogs {
		if types.Implements(types.NewPointer(log), iface) {
			return true
		}
	}
	return false
}

// isWALHandleSlice reports whether t is a slice or array of WAL handles
// (a replica set).
func (st *ackState) isWALHandleSlice(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return st.isWALHandle(u.Elem())
	case *types.Array:
		return st.isWALHandle(u.Elem())
	}
	return false
}

// isWALAppend reports whether call invokes Append on a WAL handle.
func (st *ackState) isWALAppend(pkg *Package, call *ast.CallExpr) bool {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Append" {
		return false
	}
	selection := pkg.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return false
	}
	return st.isWALHandle(selection.Recv())
}

// isQuorumSetExpr reports whether e selects a quorum replica-set field
// (the `s.followers` in `for _, f := range s.followers`).
func (st *ackState) isQuorumSetExpr(pkg *Package, e ast.Expr) bool {
	sel, isSel := ast.Unparen(e).(*ast.SelectorExpr)
	if !isSel {
		return false
	}
	v, isVar := pkg.Info.Uses[sel.Sel].(*types.Var)
	return isVar && st.quorumSets[v]
}

// classifyAppend refines a WAL append at pos in n: a quorum fan-out
// append (inside a range over the replica set), a member append
// (through a scalar handle field or one indexed element of the set), or
// a plain single-log append.
func (st *ackState) classifyAppend(n *Node, call *ast.CallExpr) ackEffects {
	for _, span := range st.fanouts[n] {
		if span[0] <= call.Pos() && call.Pos() < span[1] {
			return ackMayAppend | ackMayQuorumAppend
		}
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	recv := ast.Unparen(sel.X)
	for {
		switch x := recv.(type) {
		case *ast.IndexExpr:
			recv = ast.Unparen(x.X)
		case *ast.StarExpr:
			recv = ast.Unparen(x.X)
		case *ast.SelectorExpr:
			if v, isVar := n.Pkg.Info.Uses[x.Sel].(*types.Var); isVar &&
				(st.quorumMembers[v] || st.quorumSets[v]) {
				return ackMayAppend | ackMayMemberAppend
			}
			return ackMayAppend
		default:
			return ackMayAppend
		}
	}
}

// isWriteHeader reports whether call is ResponseWriter.WriteHeader (any
// type implementing the net/http signature — the fixture and the real
// server both go through the interface method).
func isWriteHeader(pkg *Package, call *ast.CallExpr) bool {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "WriteHeader" {
		return false
	}
	selection := pkg.Info.Selections[sel]
	return selection != nil && selection.Kind() == types.MethodVal
}

func (st *ackState) ownWriteHeader(n *Node) bool {
	found := false
	inspectOutsideGo(n.Decl.Body, func(x ast.Node) bool {
		if call, isCall := x.(*ast.CallExpr); isCall && isWriteHeader(n.Pkg, call) {
			found = true
		}
		return !found
	})
	return found
}

// ownOrderEffects computes a node's direct append/ack/mutate effects.
func (st *ackState) ownOrderEffects(n *Node) ackEffects {
	eff := ackEffects(0)
	inspectOutsideGo(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if st.isWALAppend(n.Pkg, x) {
				eff |= st.classifyAppend(n, x)
			}
			if st.isAck2xx(n, x) {
				eff |= ackMayAck2xx
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if st.mutatesDurable(n.Pkg, lhs) {
					eff |= ackMayMutate
				}
			}
		case *ast.IncDecStmt:
			if st.mutatesDurable(n.Pkg, x.X) {
				eff |= ackMayMutate
			}
		}
		return true
	})
	return eff
}

// isAck2xx reports whether call writes a success status: a constant in
// [200,300) passed to a function that (transitively) reaches
// WriteHeader, or to WriteHeader itself.
func (st *ackState) isAck2xx(n *Node, call *ast.CallExpr) bool {
	has2xx := false
	for _, arg := range call.Args {
		if tv, has := n.Pkg.Info.Types[arg]; has && tv.Value != nil &&
			tv.Value.Kind() == constant.Int {
			if v, exact := constant.Int64Val(tv.Value); exact && v >= 200 && v < 300 {
				has2xx = true
			}
		}
	}
	if !has2xx {
		return false
	}
	if isWriteHeader(n.Pkg, call) {
		return true
	}
	for _, rc := range st.pass.Graph.resolve(n.Pkg, call) {
		if st.summary[rc.node]&ackMayWriteHeader != 0 {
			return true
		}
	}
	return false
}

// mutatesDurable reports whether lhs writes a durable ack-state field
// (through any chain of indexing/dereference).
func (st *ackState) mutatesDurable(pkg *Package, lhs ast.Expr) bool {
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			lhs = x.X
			continue
		case *ast.StarExpr:
			lhs = x.X
			continue
		case *ast.ParenExpr:
			lhs = x.X
			continue
		case *ast.SelectorExpr:
			if v, isVar := pkg.Info.Uses[x.Sel].(*types.Var); isVar && st.durableFields[v] {
				return true
			}
			return false
		default:
			return false
		}
	}
}

// constructsDurable reports whether n builds a durable owner via a
// composite literal — restore/constructor code, exempt like lockguard's
// constructor rule.
func (st *ackState) constructsDurable(n *Node) bool {
	found := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if lit, isLit := x.(*ast.CompositeLit); isLit {
			if named, isNamed := namedOf(st.pass.TypeOf(n.Pkg, lit)); isNamed &&
				st.durableOwners[named.Obj()] {
				found = true
			}
		}
		return !found
	})
	return found
}

// pendingEffect is one ack-before-append candidate awaiting a later
// append on the same (linearized) path.
type pendingEffect struct {
	pos  token.Pos
	desc string
}

// ackWalker re-walks one body in source order carrying the pending
// effects; an append reports and clears them, a return discards them
// (that path ended without appending, so nothing was mis-ordered).
// quorumPending tracks the replicated variant: a member append leaves
// the record awaiting quorum, and any ack before the fan-out resolves
// it is reported immediately — even when no further append follows.
type ackWalker struct {
	st            *ackState
	node          *Node
	pending       []pendingEffect
	quorumPending bool
}

func (w *ackWalker) walk(body ast.Node) {
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			return false
		case *ast.ReturnStmt:
			// Process result expressions first: `return s.log.Append(p)`
			// is an append with the current pending set.
			for _, res := range x.Results {
				w.walk(res)
			}
			w.pending = nil
			w.quorumPending = false
			return false
		case *ast.CallExpr:
			w.visitCall(x)
			return true
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if w.st.mutatesDurable(w.node.Pkg, lhs) {
					w.ack(lhs.Pos(), "durable dedup/ack state mutated")
				}
			}
			return true
		case *ast.IncDecStmt:
			if w.st.mutatesDurable(w.node.Pkg, x.X) {
				w.ack(x.Pos(), "durable dedup/ack state mutated")
			}
			return true
		}
		return true
	})
}

func (w *ackWalker) visitCall(call *ast.CallExpr) {
	pkg := w.node.Pkg
	calleeEff := ackEffects(0)
	for _, rc := range w.st.pass.Graph.resolve(pkg, call) {
		calleeEff |= w.st.summary[rc.node]
	}
	if w.st.isWALAppend(pkg, call) {
		calleeEff |= w.st.classifyAppend(w.node, call)
	}
	if calleeEff&ackMayAppend != 0 {
		for _, pe := range w.pending {
			w.st.pass.Reportf(pe.pos,
				"%s before the WAL append at %s completes (log-before-ack): a crash in between acks a record the log never saw",
				pe.desc, pkg.Fset.Position(call.Pos()))
		}
		w.pending = nil
		switch {
		case calleeEff&ackMayQuorumAppend != 0:
			// The fan-out confirms quorum: the record is durable.
			w.quorumPending = false
		case calleeEff&ackMayMemberAppend != 0:
			// One member of a replica set appended: durable only there,
			// quorum still outstanding.
			w.quorumPending = true
		}
		return
	}
	if w.st.isAck2xx(w.node, call) {
		w.ack(call.Pos(), "2xx response written")
		return
	}
	if calleeEff&ackMayAck2xx != 0 {
		w.ack(call.Pos(), "2xx response written (via callee)")
		return
	}
	if calleeEff&ackMayMutate != 0 {
		w.ack(call.Pos(), "durable dedup/ack state mutated (via callee)")
	}
}

// ack handles one acknowledgment-like effect: while quorum is pending
// it is a violation right here (the fan-out may never run on this
// path); otherwise it joins the pending set awaiting a later append.
func (w *ackWalker) ack(pos token.Pos, desc string) {
	if w.quorumPending {
		w.st.pass.Reportf(pos,
			"%s after a member append but before the quorum fan-out confirms it (quorum-ack): losing that one member loses an acknowledged record",
			desc)
		return
	}
	w.pending = append(w.pending, pendingEffect{pos, desc})
}
