package build

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"unsnap/internal/quadrature"
)

// Package-wide work counters. They count the expensive build phases
// process-wide — every Build call, every per-ordinate classification
// scan, every schedule/condensation actually computed (dedup hits and
// cache hits don't count), in Topologies and GlobalLagSets alike — so
// tests can pin the amortisation contract:
// a warm-cache solve must move none of them.
var (
	builds          atomic.Int64
	classifications atomic.Int64
	condensations   atomic.Int64
	accelGeoms      atomic.Int64
)

// Builds returns the process-wide count of Build calls that ran (cache
// hits excluded).
func Builds() int64 { return builds.Load() }

// Classifications returns the process-wide count of per-ordinate face
// classification scans: the topology stage's and GlobalLagSets'
// whole-mesh scans alike.
func Classifications() int64 { return classifications.Load() }

// Condensations returns the process-wide count of sweep schedules
// actually computed (including SCC condensations); deduplicated
// ordinates and cache hits don't count.
func Condensations() int64 { return condensations.Load() }

// AccelGeoms returns the process-wide count of DSA geometric-operator
// assemblies; warm-cache solves get theirs from the artifact and must not
// move this counter.
func AccelGeoms() int64 { return accelGeoms.Load() }

// quadFingerprint hashes the quadrature set's content: octant layout and
// every ordinate's direction and weight at exact float64 bits.
func quadFingerprint(q *quadrature.Set) string {
	return fingerprint("q", func(put func(uint64)) {
		put(uint64(q.PerOctant))
		for i := range q.Angles {
			a := &q.Angles[i]
			for d := 0; d < 3; d++ {
				put(math.Float64bits(a.Omega[d]))
			}
			put(math.Float64bits(a.Weight))
			put(uint64(int64(a.Octant)))
		}
	})
}

// externalFingerprint hashes the external-face declarations: location,
// canonical normal bits and side.
func externalFingerprint(ext []ExternalFace) string {
	return fingerprint("x", func(put func(uint64)) {
		put(uint64(len(ext)))
		for i := range ext {
			ef := &ext[i]
			put(uint64(int64(ef.Elem)))
			put(uint64(int64(ef.Face)))
			for d := 0; d < 3; d++ {
				put(math.Float64bits(ef.Normal[d]))
			}
			if ef.Canonical {
				put(1)
			} else {
				put(0)
			}
		}
	})
}

// intsFingerprint hashes an id list (a Cut's local-to-global map).
func intsFingerprint(ids []int) string {
	return fingerprint("i", func(put func(uint64)) {
		put(uint64(len(ids)))
		for _, v := range ids {
			put(uint64(int64(v)))
		}
	})
}

// fingerprint hashes the words put emits and names them by tag and the
// first 8 bytes of their sha256.
func fingerprint(tag string, words func(put func(uint64))) string {
	h := sha256.New()
	var buf [8]byte
	words(func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	})
	return fmt.Sprintf("%s%x", tag, h.Sum(nil)[:8])
}
