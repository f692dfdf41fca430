//go:build !amd64 || purego

package rng

// haveLanes is false where the 8-lane kernels are not built: every
// labeling takes the per-edge kernels.
const haveLanes = false

func (r *Stream) scheduleLanes(dst, off []int32, coins []Coin) ([]int32, int) { return dst, 0 }

func (r *Stream) chainLanes(dst, off []int32, a, w int, start, leave, enter Coin) ([]int32, int) {
	return dst, 0
}
