package core

import "fmt"

// This file implements the numerical-health guards every solve runs: a
// NaN/Inf scan of the scalar flux after every inner iteration, and a
// divergence monitor over the inner flux-change sequence. Both surface a
// typed *HealthError that names where the iteration went bad, instead of
// letting a poisoned flux propagate silently or a diverging iteration
// burn its whole budget and return a wrong flux with a nil error.

// HealthKind names one numerical-health failure.
type HealthKind int

const (
	// HealthNaN reports a NaN or Inf in the scalar flux.
	HealthNaN HealthKind = iota
	// HealthDiverged reports sustained growth of the inner flux change
	// (source iteration running away, e.g. a scattering ratio above one).
	HealthDiverged
)

// String names the kind.
func (k HealthKind) String() string {
	switch k {
	case HealthNaN:
		return "non-finite flux"
	case HealthDiverged:
		return "diverging iteration"
	default:
		return fmt.Sprintf("HealthKind(%d)", int(k))
	}
}

// HealthError is a numerical-health failure detected by the guards.
type HealthError struct {
	Kind HealthKind

	// NaN location (HealthNaN): the first poisoned scalar-flux entry.
	Group, Elem, Node int

	// Divergence record (HealthDiverged): the inner count when the
	// monitor tripped and the last flux change it observed.
	Inner int
	DF    float64
}

// Error formats the failure.
func (e *HealthError) Error() string {
	switch e.Kind {
	case HealthNaN:
		return fmt.Sprintf("core: health check: non-finite scalar flux at elem %d group %d node %d", e.Elem, e.Group, e.Node)
	case HealthDiverged:
		return fmt.Sprintf("core: health check: inner iteration diverging (flux change %.3g after %d inners, %d consecutive inners at or above 1, not contracting)", e.DF, e.Inner, divergenceRun)
	default:
		return fmt.Sprintf("core: health check: %v", e.Kind)
	}
}

// ScanFluxHealth scans the scalar flux for NaN/Inf and returns a
// *HealthError naming the first poisoned entry, or nil. Cost is one pass
// over phi (small next to a sweep); FinishInner, and so every driver,
// calls it once per inner.
func (s *Solver) ScanFluxHealth() error {
	for i, v := range s.phi {
		if v-v != 0 { // NaN for a NaN or an infinity, 0 for every finite v
			node := i % s.nN
			rest := i / s.nN
			var e, g int
			if s.cfg.Scheme.Layout() == LayoutGE {
				g, e = rest/s.nE, rest%s.nE
			} else {
				e, g = rest/s.nG, rest%s.nG
			}
			return &HealthError{Kind: HealthNaN, Group: g, Elem: e, Node: node}
		}
	}
	return nil
}

// divergenceRun is how many consecutive inners must sit at or above a
// flux change of 1, without the change contracting across them, before
// the monitor declares divergence. A diverging source iteration
// (scattering ratio above one) settles at a relative change of ratio-1
// every inner; a converging one decays below 1. While the flux is still
// filling in far from the source the pointwise relative change can stay
// above 1 for several inners, but it contracts across them. The first
// observation is skipped: against the zero initial flux the "relative"
// change is the flux magnitude itself.
const divergenceRun = 5

// DivergenceMonitor watches the per-inner flux-change sequence of one run
// and trips after divergenceRun consecutive inners at or above 1 whose
// last change is no smaller than their first. Zero value is ready to use;
// not safe for concurrent use (hold one per rank).
type DivergenceMonitor struct {
	inners  int
	growing int
	prev    [divergenceRun - 1]float64 // the last changes, by inner modulo the length
}

// Observe feeds the monitor one inner's flux change and returns a
// *HealthError once divergence is established.
func (m *DivergenceMonitor) Observe(df float64) error {
	m.inners++
	if m.inners == 1 {
		return nil
	}
	if df < 1 {
		m.growing = 0
	} else {
		m.growing++ // NaN counts as growth
	}
	slot := &m.prev[m.inners%len(m.prev)] // the change divergenceRun-1 inners back
	contracted := df < *slot
	*slot = df
	if m.growing >= divergenceRun && !contracted {
		return &HealthError{Kind: HealthDiverged, Inner: m.inners, DF: df}
	}
	return nil
}
