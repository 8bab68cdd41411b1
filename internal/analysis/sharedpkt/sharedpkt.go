// Package sharedpkt guards the immutable-after-send packet discipline.
//
// The zero-copy fast path (DESIGN.md "Packet ownership and the zero-copy
// fast path") shares one *wire.Packet across every out-face of a fan-out and
// across the ARQ retransmission queue. That is only sound if a packet is
// never mutated after it has been handed to a handler or emitted: a write
// through a handler parameter would be observed by every sibling action and
// by in-flight deliveries.
//
// The checker therefore flags any write through a function parameter of type
// *wire.Packet — field assignment, compound assignment, ++/--, element
// assignment into a field, or whole-struct overwrite (*pkt = ...). The same
// rule covers burst parameters of type []*wire.Packet (the burst data plane
// hands whole slices to Router.HandleBurst and the transport): writes through
// an element (pkts[i].Field, *pkts[i], pkts[i].Field[j]) and writes to an
// element slot (pkts[i] = ...) are findings — every element is a packet some
// sink may already share, and the slice backing belongs to the caller.
// Mutation is done copy-on-write instead: copy the struct into a fresh local
// and write there, which this checker never flags because the local is not
// the shared parameter:
//
//	cp := *pkt        // fresh object, private to this call
//	cp.Name = newName // fine
//	use(&cp)
//
// The checker also enforces the sink-aliasing rule of the ActionSink API
// (DESIGN.md §11): once an ndn.Action has been passed to Emit, the sink owns
// the packet it carries. A sink is free to forward the action immediately —
// the testbed's EmitTo sink does — so mutating the packet afterwards races
// with delivery. Within a function body, any write through a local that was
// emitted (either the *wire.Packet named in the Action literal, or the
// .Packet field of an emitted ndn.Action variable) is flagged. Rebinding the
// local (pkt = &cp, a.Packet = &cp) ends its association with the emitted
// packet, exactly like the parameter rule above.
//
// The check is syntactic per identifier, not a points-to analysis: writes
// through a second alias (q := pkt; q.X = ...) are not caught, and
// reassigning the parameter itself (pkt = &cp) is legal and ends the
// parameter's association with the shared packet. Package internal/wire is
// exempt — it owns the representation (Decode fills the packet of the record
// it has just allocated, before anyone else can hold it).
package sharedpkt

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/icn-gaming/gcopss/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "sharedpkt",
	Doc:  "handler-received *wire.Packet values are shared and immutable; mutate a copy (cp := *pkt), never the parameter",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if analysis.PathIn(pass.Pkg.Path(), "internal/wire") {
		return nil, nil
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, n.X)
		}
		return true
	})
	// The sink-aliasing rule is flow-ordered, so it walks whole function
	// bodies rather than single nodes: declared functions directly, plus
	// function literals bound at package level (nested literals are reached
	// by checkEmitAliasing's own recursion).
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkEmitAliasing(pass, d.Body)
			case *ast.GenDecl:
				ast.Inspect(d, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						checkEmitAliasing(pass, fl.Body)
						return false
					}
					return true
				})
			}
		}
	}
	return nil, nil
}

// checkEmitAliasing walks one function body in source order and flags writes
// through locals whose packet has already been handed to an Emit call — the
// sink-aliasing rule. Nested closures are checked with their own fresh state:
// an emit in the outer body does not condemn writes inside a closure (the
// closure may run before the emit), and vice versa.
func checkEmitAliasing(pass *analysis.Pass, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	emittedPkt := map[*types.Var]bool{} // *wire.Packet locals named in an emitted Action
	emittedAct := map[*types.Var]bool{} // ndn.Action locals passed to Emit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkEmitAliasing(pass, n.Body)
			return false
		case *ast.CallExpr:
			if isEmitCall(pass, n) {
				markEmitted(pass, n.Args[0], emittedPkt, emittedAct)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkEmittedWrite(pass, lhs, emittedPkt, emittedAct)
			}
		case *ast.IncDecStmt:
			checkEmittedWrite(pass, n.X, emittedPkt, emittedAct)
		}
		return true
	})
}

// isEmitCall reports whether call is a single-argument method call named Emit
// whose argument is an ndn.Action — the ActionSink contract. Matching by
// method name and argument type covers the interface, every concrete sink,
// and test doubles alike.
func isEmitCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Emit" || len(call.Args) != 1 {
		return false
	}
	return isActionType(pass.TypesInfo.Types[call.Args[0]].Type)
}

// isActionType reports whether t is the named type Action from internal/ndn.
func isActionType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Action" && obj.Pkg() != nil && analysis.PathIn(obj.Pkg().Path(), "internal/ndn")
}

// markEmitted records which locals the Emit argument hands to the sink: the
// packet ident of an Action literal (Packet: pkt or Packet: &cp, keyed or
// positional), or the Action variable itself when passed by name.
func markEmitted(pass *analysis.Pass, arg ast.Expr, emittedPkt, emittedAct map[*types.Var]bool) {
	switch a := arg.(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[a].(*types.Var); ok {
			emittedAct[v] = true
		}
	case *ast.CompositeLit:
		for _, elt := range a.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Packet" {
					continue
				}
				val = kv.Value
			}
			if u, ok := val.(*ast.UnaryExpr); ok && u.Op == token.AND {
				val = u.X
			}
			id, ok := val.(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok {
				continue
			}
			t := v.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if isPacketNamed(t) {
				emittedPkt[v] = true
			}
		}
	}
}

// checkEmittedWrite reports lhs if it mutates a packet the sink already owns.
// A plain rebinding of the tracked ident — or of an action's Packet field —
// ends the tracking instead: the local now names a fresh object.
func checkEmittedWrite(pass *analysis.Pass, lhs ast.Expr, emittedPkt, emittedAct map[*types.Var]bool) {
	if id, ok := lhs.(*ast.Ident); ok {
		if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
			delete(emittedPkt, v)
			delete(emittedAct, v)
		}
		return
	}
	root, sels, deref := writeRoot(lhs)
	if root == nil {
		return
	}
	v, ok := pass.TypesInfo.Uses[root].(*types.Var)
	if !ok {
		return
	}
	if emittedPkt[v] {
		pass.Reportf(lhs.Pos(), "mutation of packet %s after Emit: the sink owns it and may have forwarded it already; copy before emitting (cp := *%s)", root.Name, root.Name)
		return
	}
	if !emittedAct[v] || len(sels) == 0 || sels[0] != "Packet" {
		return
	}
	if len(sels) == 1 && !deref {
		// a.Packet = &fresh rebinds the local action's field; the sink's
		// copy is unaffected, and subsequent writes go to the new packet.
		delete(emittedAct, v)
		return
	}
	pass.Reportf(lhs.Pos(), "write through %s.Packet after %s was emitted: the action aliases the sink's packet; mutate a copy before Emit", root.Name, root.Name)
}

// writeRoot unwraps a write target to its base identifier, collecting the
// selector chain from the root outward and whether a dereference occurred.
func writeRoot(e ast.Expr) (root *ast.Ident, sels []string, deref bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			deref = true
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			sels = append([]string{x.Sel.Name}, sels...)
			e = x.X
		case *ast.Ident:
			return x, sels, deref
		default:
			return nil, nil, false
		}
	}
}

// checkWrite reports lhs if it writes through a *wire.Packet parameter —
// pkt.Field, pkt.Field[i], or *pkt — or through an element of a
// []*wire.Packet burst parameter: pkts[i].Field, *pkts[i], pkts[i].Field[j],
// and the element slot itself (pkts[i] = ...), which rebinds a cell of the
// caller-owned backing array. Burst handlers that need to mutate copy the
// element out first (cp := *pkts[i]) — never flagged, the local is fresh.
func checkWrite(pass *analysis.Pass, lhs ast.Expr) {
	switch e := lhs.(type) {
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok && isPacketParam(pass, id) {
			pass.Reportf(lhs.Pos(), "write to field %s of shared packet parameter %s: packets are immutable after send, copy first (cp := *%s)", e.Sel.Name, id.Name, id.Name)
		}
		if id, ok := burstElemRoot(pass, e.X); ok {
			pass.Reportf(lhs.Pos(), "write to field %s of an element of shared burst parameter %s: burst packets are immutable, copy first (cp := *%s[i])", e.Sel.Name, id.Name, id.Name)
		}
	case *ast.IndexExpr:
		// pkt.CDs[i] = ... mutates shared backing storage.
		if sel, ok := e.X.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && isPacketParam(pass, id) {
				pass.Reportf(lhs.Pos(), "write into field %s of shared packet parameter %s: packets are immutable after send", sel.Sel.Name, id.Name)
			}
			if id, ok := burstElemRoot(pass, sel.X); ok {
				pass.Reportf(lhs.Pos(), "write into field %s of an element of shared burst parameter %s: burst packets are immutable", sel.Sel.Name, id.Name)
			}
		}
		// pkts[i] = ... rebinds a cell of the caller-owned slice.
		if id, ok := e.X.(*ast.Ident); ok && isBurstParam(pass, id) {
			pass.Reportf(lhs.Pos(), "write to an element slot of shared burst parameter %s: the caller owns the slice; build a local burst instead", id.Name)
		}
	case *ast.StarExpr:
		if id, ok := e.X.(*ast.Ident); ok && isPacketParam(pass, id) {
			pass.Reportf(lhs.Pos(), "overwrite through shared packet parameter %s: packets are immutable after send", id.Name)
		}
		if id, ok := burstElemRoot(pass, e.X); ok {
			pass.Reportf(lhs.Pos(), "overwrite through an element of shared burst parameter %s: burst packets are immutable, copy first (cp := *%s[i])", id.Name, id.Name)
		}
	}
}

// burstElemRoot unwraps pkts[i] (possibly parenthesized) to the identifier
// pkts when it is a []*wire.Packet parameter, so callers can flag writes
// through burst elements.
func burstElemRoot(pass *analysis.Pass, e ast.Expr) (*ast.Ident, bool) {
	if p, ok := e.(*ast.ParenExpr); ok {
		e = p.X
	}
	idx, ok := e.(*ast.IndexExpr)
	if !ok {
		return nil, false
	}
	id, ok := idx.X.(*ast.Ident)
	if !ok || !isBurstParam(pass, id) {
		return nil, false
	}
	return id, true
}

// isBurstParam reports whether id denotes a function (or closure) parameter
// of type []*wire.Packet — a burst, shared with the caller like a single
// packet parameter is.
func isBurstParam(pass *analysis.Pass, id *ast.Ident) bool {
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || !isParam(pass, v) {
		return false
	}
	sl, ok := v.Type().(*types.Slice)
	if !ok {
		return false
	}
	ptr, ok := sl.Elem().(*types.Pointer)
	if !ok {
		return false
	}
	return isPacketNamed(ptr.Elem())
}

// isPacketParam reports whether id denotes a function (or closure) parameter
// of type *wire.Packet. Locals — including COW copies and pointers to them —
// are exempt by construction.
func isPacketParam(pass *analysis.Pass, id *ast.Ident) bool {
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || !isParam(pass, v) {
		return false
	}
	ptr, ok := v.Type().(*types.Pointer)
	if !ok {
		return false
	}
	return isPacketNamed(ptr.Elem())
}

// isPacketNamed reports whether t is the named type Packet from internal/wire.
func isPacketNamed(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Packet" && obj.Pkg() != nil && analysis.PathIn(obj.Pkg().Path(), "internal/wire")
}

// isParam reports whether v appears in some function signature's parameter
// tuple. The types API does not mark parameter-ness on the Var itself, so the
// analyzer records every parameter object while walking the file set.
func isParam(pass *analysis.Pass, v *types.Var) bool {
	params := paramSet(pass)
	return params[v]
}

// paramCache memoizes the parameter set per Pass (the Inspect callback runs
// per node; rebuilding the set each time would be quadratic).
var paramCache = map[*analysis.Pass]map[*types.Var]bool{}

func paramSet(pass *analysis.Pass) map[*types.Var]bool {
	if s, ok := paramCache[pass]; ok {
		return s
	}
	s := map[*types.Var]bool{}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					s[v] = true
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				collect(n.Type.Params)
			case *ast.FuncLit:
				collect(n.Type.Params)
			}
			return true
		})
	}
	paramCache[pass] = s
	return s
}
