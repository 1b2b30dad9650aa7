//go:build unix && !aix && !race

package tm

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// newArena maps n zeroed words outside the Go heap: one private anonymous
// mapping that reserves address space only, so a page becomes resident when
// it is first touched and is zero then. The garbage collector neither scans
// nor counts it. The mapping is released by the finalizer of the returned
// handle, and by nothing else, so every holder of a view must hold the
// handle too (see arena).
func newArena(n int) (*arena, []uint64) {
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("tm: mapping a heap of %d words: %v", n, err))
	}
	a := &arena{mem: mem}
	// An unmap that fails leaks address space, nothing more; a finalizer
	// has no one to report it to.
	runtime.SetFinalizer(a, func(a *arena) { _ = syscall.Munmap(a.mem) })
	return a, unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), n)
}
