package analysis

import "go/types"

// A FactStore accumulates per-object facts exported by analyzers while the
// driver walks packages in dependency order. A fact is an analyzer-defined
// summary of an object ("this function emits to a sink", "this field is
// guarded by mu") that lets an importing package reason about an already
// analyzed dependency without re-traversing its source.
//
// The store is keyed by (analyzer name, canonical object key). Object keys
// are strings rather than *types.Object pointers because the same function is
// represented by different objects when its package is loaded from source
// (while being analyzed) and from export data (when imported later); the
// canonical string forms produced by FuncKey and FieldKey are identical in
// both views.
//
// Correctness contract: facts about a package's objects are only complete
// once every analyzer has run on that package, so the driver MUST analyze
// packages in dependency order (imported packages first). load.Packages
// returns units in such an order.
type FactStore struct {
	m map[factKey]interface{}
}

type factKey struct {
	analyzer string
	object   string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{m: map[factKey]interface{}{}} }

// ExportFact records a fact about the object identified by key on behalf of
// the pass's analyzer. Passes without a store (plain RunUnit) drop facts
// silently, so analyzers degrade to per-package checking.
func (p *Pass) ExportFact(key string, fact interface{}) {
	if p.Facts == nil || key == "" {
		return
	}
	p.Facts.m[factKey{p.Analyzer.Name, key}] = fact
}

// ImportFact retrieves a fact previously exported for key by the same
// analyzer while analyzing a dependency (or this package).
func (p *Pass) ImportFact(key string) (interface{}, bool) {
	if p.Facts == nil || key == "" {
		return nil, false
	}
	f, ok := p.Facts.m[factKey{p.Analyzer.Name, key}]
	return f, ok
}

// FuncKey returns the canonical cross-package key of a function or method:
// "pkg/path.Name" for package functions, "(pkg/path.T).M" / "(*pkg/path.T).M"
// for methods. The form is stable across source and export-data loads.
func FuncKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	return fn.FullName()
}

// FieldKey returns the canonical cross-package key of a struct field.
func FieldKey(pkgPath, typeName, field string) string {
	return pkgPath + "." + typeName + "." + field
}
