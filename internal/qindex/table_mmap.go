//go:build unix && !race

package qindex

import (
	"syscall"
	"unsafe"
)

// tablesMapped reports whether newTable maps its tables outside the heap.
const tablesMapped = true

// newTable returns a zeroed table of n×n 16-bit entries in an anonymous
// private mapping, outside the Go heap, and the mapping for unmap. When
// the mapping fails it falls back to a heap table and a nil mapping; n = 0
// maps nothing.
func newTable(n int) ([]uint16, []byte) {
	if n == 0 {
		return nil, nil
	}
	m, err := syscall.Mmap(-1, 0, int(FullTableBytes(n)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint16, n*n), nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&m[0])), n*n), m
}

// unmap releases a mapping newTable returned. It fails only on a mapping
// that is not live, which is a double release.
func unmap(m []byte) {
	if err := syscall.Munmap(m); err != nil {
		panic("qindex: unmap table: " + err.Error())
	}
	unmappedBytes.Add(int64(len(m)))
}
