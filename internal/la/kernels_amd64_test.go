package la

import "testing"

// eachKernelPath runs fn once per implementation this machine can
// execute: on the pure-Go loops, then on the vector kernels.
func eachKernelPath(t testing.TB, fn func(path string)) {
	have := useAVX2
	defer func() { useAVX2 = have }()
	useAVX2 = false
	fn("generic")
	if !have {
		t.Log("this CPU lacks AVX2: vector path not run")
		return
	}
	useAVX2 = true
	fn("avx2")
}
