//go:build !unix || race

package qindex

// tablesMapped reports whether newTable maps its tables outside the heap.
// Race builds keep them on the heap: the race detector ignores memory
// outside the Go heap and data segment, so it would not see the
// concurrent build's writes into a mapped table.
const tablesMapped = false

// newTable returns a heap table of n×n 16-bit entries and no mapping.
func newTable(n int) ([]uint16, []byte) { return make([]uint16, n*n), nil }

// unmap is never called: newTable maps nothing in this build.
func unmap([]byte) {}
