//go:build !race

// The race detector's sync.Pool drops items at random, so the pin below
// only holds without it.

package comm

import "testing"

// TestMessagePoolAllocFree pins that a warm get/put round trip of the
// pipelined message pool allocates nothing: the pool holds the buffers
// by pointer, so a put boxes no slice header.
func TestMessagePoolAllocFree(t *testing.T) {
	ps := &pipelinedState{msgLen: 8}
	ps.putBuf(ps.getBuf())
	if n := testing.AllocsPerRun(100, func() { ps.putBuf(ps.getBuf()) }); n != 0 {
		t.Fatalf("a warm get/put round trip allocates %v times", n)
	}
}
