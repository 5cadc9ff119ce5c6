package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestKernelSectionLAAndPrevious: the la table measures every size, and a
// kernel refresh keeps the section it replaces as the "before" of a
// before/after pair — once, from another commit on the same machine.
func TestKernelSectionLAAndPrevious(t *testing.T) {
	rows := RunLA([]int{27, 64})
	if len(rows) != 2 || rows[1].N != 64 || rows[1].GENs <= 0 || rows[1].FactorNs <= 0 || rows[1].FactorLanesNs <= 0 || rows[1].TriSolveNs <= 0 || rows[1].TriSolveLanesNs <= 0 {
		t.Fatalf("la rows not measured: %+v", rows)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	write := func(commit, kernels string) *KernelSection {
		t.Helper()
		sec := &KernelSection{LA: rows, UncachedTaskNs: 1, LAKernels: kernels}
		if err := WriteSweepJSON(path, commit, sec); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep SweepReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Commit != commit || rep.Kernel.Commit != commit || rep.Kernel.Machine == nil {
			t.Fatalf("commit/machine stamp lost: %+v", rep)
		}
		return rep.Kernel
	}
	if k := write("aaaa", ""); k.Previous != nil || len(k.LA) != 2 || k.UncachedTaskNs != 1 {
		t.Fatalf("first write: %+v", k)
	}
	if k := write("aaaa", ""); k.Previous != nil {
		t.Fatalf("same-commit refresh kept a previous section: %+v", k.Previous)
	}
	// la_kernels is not part of the machine stamp: a section written
	// before the field existed is still the "before" of one with it.
	if k := write("bbbb", "avx2"); k.Previous == nil || k.Previous.Commit != "aaaa" || k.LAKernels != "avx2" || k.Previous.LAKernels != "" {
		t.Fatalf("new-commit refresh lost the previous section: %+v", k)
	}
	if k := write("cccc", "avx2"); k.Previous == nil || k.Previous.Commit != "bbbb" || k.Previous.Previous != nil {
		t.Fatalf("previous sections must not chain: %+v", k.Previous)
	}

	// A corrupt existing file must refuse the write instead of clobbering.
	bad := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepJSON(bad, "cccc", &KernelSection{}); err == nil {
		t.Fatal("corrupt existing report should refuse the write")
	}
}

// TestRunMatrices: the element-matrix table times every order it is
// given on a twisted mesh.
func TestRunMatrices(t *testing.T) {
	p := DefaultKernel().Uncached
	p.NX, p.NY, p.NZ = 2, 2, 2
	rows, err := RunMatrices(p, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Order != 1 || rows[1].N != 27 || rows[0].NsPerElement <= 0 || rows[1].NsPerElement <= 0 {
		t.Fatalf("matrix rows not measured: %+v", rows)
	}
}
