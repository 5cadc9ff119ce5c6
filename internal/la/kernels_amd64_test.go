package la

import (
	"math"
	"os"
	"strings"
	"testing"
)

// eachKernelPath runs fn once per implementation this machine can
// execute: on the pure-Go loops; on the AVX2 kernels with FactorLanes'
// paired kernel at every n ("avx2-paired"), then with its blocked kernel
// at every n ("avx2"); then with the blocked kernel's AVX-512 form
// ("avx512"). A CPU whose /proc/cpuinfo lists avx512f but that
// detectAVX512 rejects fails the test instead of skipping that pass.
func eachKernelPath(t testing.TB, fn func(path string)) {
	have, have512, minN := useAVX2, useAVX512, blockedMinN
	defer func() { useAVX2, useAVX512, blockedMinN = have, have512, minN }()
	useAVX2, useAVX512 = false, false
	fn("generic")
	if !have {
		t.Log("this CPU lacks AVX2: vector paths not run")
		return
	}
	useAVX2, blockedMinN = true, math.MaxInt
	fn("avx2-paired")
	blockedMinN = 0
	fn("avx2")
	if !have512 {
		if cpuinfoLists("avx512f") {
			t.Fatal("/proc/cpuinfo lists avx512f but detectAVX512 reports false: the avx512 path would go untested")
		}
		t.Log("this CPU lacks AVX-512F: avx512 path not run")
		return
	}
	useAVX512 = true
	fn("avx512")
}

// cpuinfoLists reports whether a flags line of /proc/cpuinfo names flag
// (false where the file does not exist).
func cpuinfoLists(flag string) bool {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				if f == flag {
					return true
				}
			}
		}
	}
	return false
}
