// Package hot exercises the hotalloc analyzer: every known-allocating
// construct inside a //gcopss:hotpath function is flagged, transitively
// through same-package and imported callees, while stack-friendly idioms
// (value struct literals, scratch-slice appends, pointer conversions) pass.
package hot

import "alloclib"

type pair struct{ a, b uint64 }

type stringer interface{ Len() int }

type lenString string

func (s lenString) Len() int { return len(s) }

// formats is hot and calls fmt directly — flagged at the call.
//
//gcopss:hotpath
func formats(n int) string {
	return alloclib.Describe(n) // want "call to Describe on hot path formats allocates: fmt.Sprintf"
}

// formatsDeep inherits the leaf phrase through two module-internal hops.
//
//gcopss:hotpath
func formatsDeep(n int) string {
	return alloclib.Wrap(n) // want "call to Wrap on hot path formatsDeep allocates: fmt.Sprintf"
}

// helper allocates; it is cold itself, so the finding lands on its hot
// callers (local fixpoint).
func helper(a, b string) string {
	return a + b
}

// concats is hot: direct concat and a call to an allocating helper.
//
//gcopss:hotpath
func concats(a, b string) string {
	c := a + b          // want "non-constant string concatenation on hot path concats"
	return helper(c, a) // want "call to helper on hot path concats allocates: non-constant string concatenation"
}

// loops is hot: make, slice literals and &composite literals inside loops.
//
//gcopss:hotpath
func loops(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		buf := make([]byte, 8) // want "make inside a loop on hot path loops"
		ids := []int{i}        // want "slice literal inside a loop on hot path loops"
		p := &pair{a: 1}       // want "&composite literal inside a loop on hot path loops"
		total += len(buf) + len(ids) + int(p.a)
	}
	return total
}

// captures is hot: the closure captures total, forcing both to the heap.
//
//gcopss:hotpath
func captures(n int) int {
	total := 0
	f := func() { total += n } // want "closure capturing total on hot path captures"
	f()
	return total
}

// converts is hot: concrete values crossing into interfaces allocate.
//
//gcopss:hotpath
func converts(s lenString) int {
	var i stringer
	i = s                        // want "value-to-interface conversion at assignment on hot path converts"
	return i.Len() + useIface(s) // want "value-to-interface conversion at call argument on hot path converts"
}

func useIface(v stringer) int { return v.Len() }

// returnsIface is hot and returns a concrete value as an interface.
//
//gcopss:hotpath
func returnsIface(s lenString) stringer {
	return s // want "value-to-interface conversion at return on hot path returnsIface"
}

// clean is hot and uses only stack-friendly constructs: value struct
// literals (even in loops), scratch appends, pointer-to-interface, constant
// arguments and allocation-free callees.
//
//gcopss:hotpath
func clean(scratch []pair, n int) []pair {
	scratch = scratch[:0]
	for i := 0; i < n; i++ {
		scratch = append(scratch, pair{a: uint64(i), b: uint64(alloclib.Double(i))})
	}
	var s stringer
	ls := lenString("x")
	s = &ls // pointer into an interface: no allocation
	_ = s
	return scratch
}

// cold allocates freely: no hotpath annotation, no findings.
func cold(n int) string {
	return alloclib.Describe(n) + "!"
}

// waived is hot but carries a reasoned waiver on its one finding.
//
//gcopss:hotpath
func waived(n int) string {
	return alloclib.Describe(n) //lint:allow hotalloc cold fallback path, measured at 0.1% of calls
}
