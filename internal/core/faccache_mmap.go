//go:build linux && !race

package core

import (
	"fmt"
	"syscall"
	"unsafe"
)

// storeMem is the mapping the store's slabs live in.
type storeMem struct{ b []byte }

// allocStore takes a float slab of floats entries and an int32 slab of
// offs entries from one anonymous private mapping, the float slab first.
// Its pages arrive zeroed on first touch, and the huge-page hint lets the
// kernel back the slabs with 2 MB pages where transparent huge pages are
// in madvise mode, sparing the fill the first-touch faults of 4 KB ones.
func allocStore(floats, offs int) ([]float64, []int32, storeMem, error) {
	size := floats*8 + offs*4
	if size == 0 {
		return nil, nil, storeMem{}, nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, storeMem{}, fmt.Errorf("core: mapping the factor store (%d bytes): %w", size, err)
	}
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) // a hint: without THP the pages stay 4 KB
	p := unsafe.Pointer(unsafe.SliceData(b))
	return unsafe.Slice((*float64)(p), floats), unsafe.Slice((*int32)(unsafe.Add(p, floats*8)), offs), storeMem{b}, nil
}

// free unmaps the slabs; nothing may read them afterwards.
func (m storeMem) free() {
	if m.b != nil {
		_ = syscall.Munmap(m.b)
	}
}
