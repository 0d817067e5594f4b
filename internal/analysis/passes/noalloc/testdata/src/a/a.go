// Package a is the noalloc golden fixture: every allocation source the pass
// knows, each in a //masstree:noalloc function with a clean counterpart —
// the compiler-optimized conversion forms, pointer-shaped boxing, amortized
// append growth, and unannotated functions.
package a

import (
	"errors"
	"fmt"
)

type buf struct {
	b []byte
}

func (b *buf) M() {}

func run0() {}

//masstree:noalloc
func allocs(n int, s string, b []byte) {
	_ = make([]byte, n)  // want `make allocates`
	_ = new(buf)         // want `new allocates`
	_ = []int{1, 2}      // want `slice literal allocates`
	_ = map[string]int{} // want `map literal allocates`
	_ = &buf{}           // want `escaping composite literal allocates`
	_ = string(b)        // want `string conversion allocates`
	_ = []byte(s)        // want `\[\]byte conversion allocates`
	_ = s + "x"          // want `string concatenation allocates`
	fmt.Println(s)       // want `fmt\.Println allocates`
	_ = errors.New("x")  // want `errors\.New allocates`
	go run0()            // want `go statement allocates`
}

//masstree:noalloc
func concat(s string) string {
	s += "y" // want `string concatenation allocates`
	return s
}

// --- interface boxing ---

func take(x interface{}) {}

//masstree:noalloc
func box(v int, p *buf) {
	var i interface{}
	i = v // want `interface conversion boxes int and allocates`
	i = p // clean: pointer-shaped values fit the interface word
	_ = i
	take(v)   // want `interface conversion boxes int and allocates`
	take(p)   // clean
	take(nil) // clean: nil converts for free
}

//masstree:noalloc
func retBox(v int) interface{} {
	return v // want `interface conversion boxes int and allocates`
}

//masstree:noalloc
func retPtr(p *buf) interface{} { // clean
	return p
}

// --- closures and method values ---

//masstree:noalloc
func closure(n int) func() int {
	return func() int { return n } // want `closure captures n and allocates`
}

//masstree:noalloc
func staticLit() func() int { // clean: capture-free literals are static
	return func() int { return 7 }
}

//masstree:noalloc
func methodVal(b *buf) func() {
	return b.M // want `method value allocates`
}

//masstree:noalloc
func methodCall(b *buf) { // clean: a direct call is not a method value
	b.M()
}

// --- exempt forms ---

//masstree:noalloc
func exempt(m map[string]int, b []byte, s string) (int, bool) {
	if string(b) == s { // clean: comparison conversion does not allocate
		return m[string(b)], true // clean: map-index conversion does not allocate
	}
	return 0, false
}

//masstree:noalloc
func appendGrow(dst []byte, b byte) []byte { // clean: amortized growth is not flagged
	return append(dst, b)
}

//masstree:noalloc
func valueLit() buf { // clean: a value composite literal does not escape
	return buf{}
}

func unannotated() []byte { // clean: only //masstree:noalloc functions are checked
	return make([]byte, 64)
}

//masstree:noalloc
func warmup(n int) []int { // clean: the allow covers the warm-up make
	return make([]int, n) //lint:allow noalloc warm-up allocation amortized over the scratch lifetime
}

// --- stale annotations (reported by the driver as analyzer lint) ---

// misspelt's contract is a typo, so noalloc never checks its make; the
// directive itself is the finding.
//
/* want `unknown directive //masstree:noaloc` */ //masstree:noaloc
func misspelt(n int) []byte {
	return make([]byte, n)
}

func staleAllow(n int) []byte {
	/* want `names noaloc, which is not an analyzer of this run` */ //lint:allow noaloc a misspelt allow suppresses nothing
	return make([]byte, n)
}
