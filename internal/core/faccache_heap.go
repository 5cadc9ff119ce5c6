//go:build !linux || race

package core

// storeMem is empty where the store's slabs are heap slices: on systems
// without mmap, and under the race detector, which checks accesses to
// heap and data addresses only, so slabs in a mapping would leave the
// store's claim-and-publish protocol unchecked.
type storeMem struct{}

// allocStore makes the float and int32 slabs on the heap.
func allocStore(floats, offs int) ([]float64, []int32, storeMem, error) {
	return make([]float64, floats), make([]int32, offs), storeMem{}, nil
}

// free leaves the slabs to the collector.
func (storeMem) free() {}
