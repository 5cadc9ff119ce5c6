package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// The factor store's lifecycle: its slabs are taken at New, released by
// Close (or the cleanup of a dropped solver) and taken again by the next
// sweep. These tests mean most without the race detector, where the
// slabs are an anonymous mapping and a read after release would fault.

// storeBaseline collects until dropped solvers' cleanups have run and
// returns the process's live store bytes.
func storeBaseline() int64 {
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	return StoreMappedBytes()
}

// storeLifecycleConfigs are the store's shapes: the lazy policy on
// single-ordinate and on two- and four-ordinate set entries, and the
// eager one.
func storeLifecycleConfigs(t *testing.T) map[string]Config {
	lazy := engineProblem(t)
	lazy.Scheme, lazy.Threads = SchemeEngine, 3
	pre := lazy
	pre.PreAssembled = true
	return map[string]Config{
		"lazy":         lazy,
		"preassembled": pre,
		"sets2":        angleSetConfig(t, 1, 2, "vacuum"),
		"sets4":        angleSetConfig(t, 1, 4, "vacuum"),
	}
}

// TestStoreLifecycleCloseAndReuse pins Run -> Close -> Run against a
// solver that is never closed, bit for bit, with the Close made from
// three goroutines at once: the second Run maps the store again, every
// entry empty under the lazy policy and refilled under the eager one,
// and warm-starts from the flux the first left.
func TestStoreLifecycleCloseAndReuse(t *testing.T) {
	for name, cfg := range storeLifecycleConfigs(t) {
		t.Run(name, func(t *testing.T) {
			twice := func(close bool) (phi, psi []float64, s *Solver) {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if s.fc == nil {
					t.Fatal("no factor store")
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				if close {
					// Close is safe from several goroutines at once.
					var wg sync.WaitGroup
					for range 3 {
						wg.Add(1)
						go func() {
							defer wg.Done()
							s.Close()
						}()
					}
					wg.Wait()
					if s.fc.mapped || s.fc.off != nil || s.fc.entries[0].lu != nil {
						t.Fatal("Close left the store mapped")
					}
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				if !s.fc.mapped {
					t.Fatal("the Run after Close did not map the store")
				}
				phi, psi = snapshotSolver(s)
				return phi, psi, s
			}
			wantPhi, wantPsi, _ := twice(false)
			phi, psi, s := twice(true)
			if !slices.Equal(phi, wantPhi) || !slices.Equal(psi, wantPsi) {
				t.Fatal("Run -> Close -> Run differs from two Runs")
			}
			switch name {
			case "sets2", "sets4":
				want := int32(name[4] - '0')
				if w := setWidths(s, 0); len(w) != 1 || w[0] != want {
					t.Fatalf("octant 0 sets %v, want one of %d", w, want)
				}
			}
		})
	}
}

// TestStoreLifecycleAfterClose pins that nothing reads a released store:
// a second Close, ResetState, Psi and PsiFaceValues on a closed solver,
// and the bucket schemes, which read the eager store's factors, sweeping
// after Close — the reset solver then repeats a fresh solver's Run bit
// for bit.
func TestStoreLifecycleAfterClose(t *testing.T) {
	for _, scheme := range []Scheme{SchemeEngine, SchemeAGE, SchemeAeG} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := engineProblem(t)
			cfg.Scheme, cfg.Threads, cfg.PreAssembled = scheme, 2, true
			fresh := func() *Solver {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			ref := fresh()
			defer ref.Close()
			if _, err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			wantPhi, wantPsi := snapshotSolver(ref)

			s := fresh()
			defer s.Close()
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s.Close()
			if s.fc.mapped {
				t.Fatal("Close left the store mapped")
			}
			if got := s.Psi(1, 2, 0, 3); got != ref.Psi(1, 2, 0, 3) {
				t.Fatalf("Psi after Close %v, want %v", got, ref.Psi(1, 2, 0, 3))
			}
			face := make([]float64, s.re.NF)
			s.PsiFaceValues(0, 1, 0, 2, face)
			s.ResetState()
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if phi, psi := snapshotSolver(s); !slices.Equal(phi, wantPhi) || !slices.Equal(psi, wantPsi) {
				t.Fatal("Close -> ResetState -> Run differs from a fresh solver's Run")
			}
		})
	}
}

// TestStoreLifecycleBytes pins the live-bytes counter: a solver's store
// counts from New to Close, again from the next sweep to the next Close,
// and a second Close does not count it twice.
func TestStoreLifecycleBytes(t *testing.T) {
	for name, cfg := range storeLifecycleConfigs(t) {
		t.Run(name, func(t *testing.T) {
			base := storeBaseline()
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			size := s.fc.bytes()
			want := func(b int64, when string) {
				t.Helper()
				if got := StoreMappedBytes() - base; got != b {
					t.Fatalf("%s: %d store bytes above baseline, want %d", when, got, b)
				}
			}
			if size <= 0 {
				t.Fatalf("store of %d bytes", size)
			}
			want(size, "after New")
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			want(size, "after Run")
			s.Close()
			want(0, "after Close")
			s.Close()
			want(0, "after a second Close")
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			want(size, "after Close and Run")
			s.Close()
			want(0, "after Close, Run, Close")
		})
	}
}
