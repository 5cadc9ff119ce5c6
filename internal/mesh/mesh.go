// Package mesh builds and manipulates the unstructured hexahedral meshes
// UnSNAP sweeps. Following the paper, the mesh is derived from the
// original SNAP structured grid but stored in a fully unstructured format:
// every element carries its own vertex coordinates and an explicit list of
// face neighbours, and nothing downstream relies on implicit i/j/k
// adjacency. A "twist" option rotates each z-layer of vertices slightly
// about the domain axis so the elements are genuinely non-cubic and every
// geometric code path is exercised.
package mesh

import (
	"fmt"
	"math"

	"unsnap/internal/fem"
	"unsnap/internal/xs"
)

// Face describes one side of an element.
type Face struct {
	// Neighbor is the adjacent element index, or -1 on the domain (or
	// subdomain) boundary.
	Neighbor int
	// NeighborFace is the face index on the neighbour that coincides with
	// this face (-1 on the boundary).
	NeighborFace int
}

// Element is a hexahedral cell: 8 corner vertices in the fem.Geometry
// corner order, explicit face connectivity, and the SNAP problem data
// attached to the cell (material index and fixed source strength).
type Element struct {
	Corners  [8][3]float64
	Faces    [fem.NumFaces]Face
	Material int
	Source   float64
}

// Geometry returns the trilinear geometry of element e.
func (e *Element) Geometry() *fem.Geometry {
	return &fem.Geometry{V: e.Corners}
}

// Mesh is an unstructured collection of hexahedral elements. The
// structured provenance (grid shape and domain extents) is retained for
// partitioning and for comparisons with the finite-difference baseline,
// but the solver only ever walks Elems and their face links.
type Mesh struct {
	Elems []Element

	// Structured provenance.
	NX, NY, NZ   int
	LX, LY, LZ   float64
	Twist        float64
	TwistPeriods float64
}

// Config describes a SNAP-style structured box problem to be stored
// unstructured.
type Config struct {
	NX, NY, NZ int     // elements per dimension
	LX, LY, LZ float64 // domain extents
	// Twist is the maximum rotation (radians) applied to the top z-layer
	// of vertices about the domain's central axis; layers below rotate
	// proportionally to their height. The paper uses up to 0.001.
	Twist float64
	// TwistPeriods switches the twist profile from the paper's monotone
	// ramp to an oscillation: theta(z) = Twist * sin(2 pi TwistPeriods
	// z/LZ). The alternating differential rotation between z-layers tilts
	// the z-face normals back and forth azimuthally, which is how genuinely
	// cyclic upwind dependency graphs arise at modest distortion — the
	// monotone ramp needs extreme angles (~2 rad) before any ordinate's
	// graph closes a cycle, while e.g. Twist 0.35 with 2 periods on a 6^3
	// grid already cycles half the SNAP ordinates without inverting any
	// element. Zero (the default) keeps the paper's profile; cyclic meshes
	// are only sweepable with the solver's AllowCycles option.
	TwistPeriods float64
	MatOpt       int // xs material layout option
	SrcOpt       int // xs source layout option
}

// DefaultConfig returns the paper's Figure 3 problem shape scaled to unit
// extents: a 16^3 twisted grid with Material/Source option 1 semantics.
func DefaultConfig() Config {
	return Config{NX: 16, NY: 16, NZ: 16, LX: 1, LY: 1, LZ: 1, Twist: 0.001,
		MatOpt: xs.MatOptCentre, SrcOpt: xs.SrcOptEverywhere}
}

// New builds the unstructured mesh for cfg.
func New(cfg Config) (*Mesh, error) {
	if cfg.NX < 1 || cfg.NY < 1 || cfg.NZ < 1 {
		return nil, fmt.Errorf("mesh: grid dimensions must be >= 1, got %dx%dx%d", cfg.NX, cfg.NY, cfg.NZ)
	}
	if cfg.LX <= 0 || cfg.LY <= 0 || cfg.LZ <= 0 {
		return nil, fmt.Errorf("mesh: domain extents must be positive, got %gx%gx%g", cfg.LX, cfg.LY, cfg.LZ)
	}
	if err := xs.ValidateOptions(cfg.MatOpt, cfg.SrcOpt); err != nil {
		return nil, err
	}
	if cfg.TwistPeriods < 0 {
		return nil, fmt.Errorf("mesh: twist periods must be >= 0, got %g", cfg.TwistPeriods)
	}
	m := &Mesh{
		NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ,
		LX: cfg.LX, LY: cfg.LY, LZ: cfg.LZ,
		Twist: cfg.Twist, TwistPeriods: cfg.TwistPeriods,
	}
	ne := cfg.NX * cfg.NY * cfg.NZ
	m.Elems = make([]Element, ne)

	dx := cfg.LX / float64(cfg.NX)
	dy := cfg.LY / float64(cfg.NY)
	dz := cfg.LZ / float64(cfg.NZ)

	for iz := 0; iz < cfg.NZ; iz++ {
		for iy := 0; iy < cfg.NY; iy++ {
			for ix := 0; ix < cfg.NX; ix++ {
				e := &m.Elems[m.index(ix, iy, iz)]
				// Corner vertices, twisted per-vertex so shared vertices
				// coincide exactly between neighbouring elements.
				for c := 0; c < 8; c++ {
					v := [3]float64{
						float64(ix+(c>>0&1)) * dx,
						float64(iy+(c>>1&1)) * dy,
						float64(iz+(c>>2&1)) * dz,
					}
					e.Corners[c] = m.twistPoint(v, cfg)
				}
				// Connectivity from the structured provenance.
				link := func(f, jx, jy, jz int) {
					if jx < 0 || jy < 0 || jz < 0 || jx >= cfg.NX || jy >= cfg.NY || jz >= cfg.NZ {
						e.Faces[f] = Face{Neighbor: -1, NeighborFace: -1}
						return
					}
					e.Faces[f] = Face{Neighbor: m.index(jx, jy, jz), NeighborFace: OppositeFace(f)}
				}
				link(fem.FaceXLo, ix-1, iy, iz)
				link(fem.FaceXHi, ix+1, iy, iz)
				link(fem.FaceYLo, ix, iy-1, iz)
				link(fem.FaceYHi, ix, iy+1, iz)
				link(fem.FaceZLo, ix, iy, iz-1)
				link(fem.FaceZHi, ix, iy, iz+1)
				// Problem data from the untwisted fractional cell centre.
				fx := (float64(ix) + 0.5) / float64(cfg.NX)
				fy := (float64(iy) + 0.5) / float64(cfg.NY)
				fz := (float64(iz) + 0.5) / float64(cfg.NZ)
				e.Material = xs.MaterialAt(cfg.MatOpt, fx, fy, fz)
				e.Source = xs.SourceAt(cfg.SrcOpt, fx, fy, fz)
			}
		}
	}
	return m, nil
}

// twistPoint rotates point v about the domain's central z-axis by an angle
// that depends only on its height — theta(z) = Twist * z/LZ for the
// paper's monotone ramp, or Twist * sin(2 pi TwistPeriods z/LZ) in the
// oscillating (cycle-producing) mode — so shared vertices coincide exactly
// between neighbouring elements.
func (m *Mesh) twistPoint(v [3]float64, cfg Config) [3]float64 {
	if cfg.Twist == 0 {
		return v
	}
	theta := cfg.Twist * v[2] / cfg.LZ
	if cfg.TwistPeriods > 0 {
		theta = cfg.Twist * math.Sin(2*math.Pi*cfg.TwistPeriods*v[2]/cfg.LZ)
	}
	cx, cy := cfg.LX/2, cfg.LY/2
	s, c := math.Sin(theta), math.Cos(theta)
	x, y := v[0]-cx, v[1]-cy
	return [3]float64{cx + c*x - s*y, cy + s*x + c*y, v[2]}
}

// index maps structured coordinates to the element index.
func (m *Mesh) index(ix, iy, iz int) int {
	return ix + m.NX*(iy+m.NY*iz)
}

// StructuredCoords recovers the structured (ix, iy, iz) of element e.
func (m *Mesh) StructuredCoords(e int) (ix, iy, iz int) {
	ix = e % m.NX
	iy = (e / m.NX) % m.NY
	iz = e / (m.NX * m.NY)
	return
}

// NumElems returns the number of elements.
func (m *Mesh) NumElems() int { return len(m.Elems) }

// OppositeFace returns the face index that coincides with f on the
// neighbouring element of a conforming mesh.
func OppositeFace(f int) int {
	if f%2 == 0 {
		return f + 1
	}
	return f - 1
}

// CheckConnectivity validates the face links: every interior link must be
// reciprocated by the neighbour (neighbour-of-neighbour is self with the
// stated faces). It returns the first inconsistency found.
func (m *Mesh) CheckConnectivity() error {
	for e := range m.Elems {
		for f := 0; f < fem.NumFaces; f++ {
			fc := m.Elems[e].Faces[f]
			if fc.Neighbor < 0 {
				continue
			}
			if fc.Neighbor >= len(m.Elems) {
				return fmt.Errorf("mesh: element %d face %d links to out-of-range element %d", e, f, fc.Neighbor)
			}
			back := m.Elems[fc.Neighbor].Faces[fc.NeighborFace]
			if back.Neighbor != e || back.NeighborFace != f {
				return fmt.Errorf("mesh: link (%d,%d)->(%d,%d) not reciprocated (got %d,%d)",
					e, f, fc.Neighbor, fc.NeighborFace, back.Neighbor, back.NeighborFace)
			}
		}
	}
	return nil
}

// TotalVolume integrates the volume of all elements with the given
// reference element's quadrature (each term bitwise the element's
// ElementMatrices.Volume).
func (m *Mesh) TotalVolume(re *fem.RefElement) (float64, error) {
	total := 0.0
	for e := range m.Elems {
		vol, err := re.Volume(m.Elems[e].Geometry())
		if err != nil {
			return 0, fmt.Errorf("mesh: element %d: %w", e, err)
		}
		total += vol
	}
	return total, nil
}
