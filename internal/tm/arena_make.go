//go:build !unix || aix || race

package tm

// newArena returns n zeroed words from the Go heap. Race builds take this
// path on every target: the race detector ignores loads, stores and atomics
// outside Go memory, so a mapped heap would drop every heap word from its
// view. So do targets without an anonymous no-reserve mapping.
func newArena(n int) (*arena, []uint64) {
	return &arena{}, make([]uint64, n)
}
