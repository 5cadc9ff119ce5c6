package build

import (
	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/sweep"
)

// classifier is the module's one face classification: which faces of
// each element are upwind for a direction. Topologies and GlobalLagSets
// both classify through it. A boundary face is upwind when the direction
// enters through it, a declared External face by its pair's canonical
// normal (ExternalInflow). An interior face is judged once, from its
// lower-element side, so both sides agree even when the direction is
// nearly tangent to a twisted face.
type classifier struct {
	m *mesh.Mesh
	// normal[e*NumFaces+f] is fem.RefElement.FaceUnitNormal of the faces
	// the rule reads it on (boundary faces, interior faces of their lower
	// element), computed once; ext[e*NumFaces+f] is the face's External
	// declaration, if any (ext is nil without External).
	normal [][3]float64
	ext    []*ExternalFace
	words  int
}

func newClassifier(m *mesh.Mesh, re *fem.RefElement, external []ExternalFace) *classifier {
	nE := m.NumElems()
	c := &classifier{m: m, normal: make([][3]float64, nE*fem.NumFaces), words: (nE*fem.NumFaces + 63) / 64}
	for e := range m.Elems {
		geo := m.Elems[e].Geometry()
		for f := 0; f < fem.NumFaces; f++ {
			if nb := m.Elems[e].Faces[f].Neighbor; nb < 0 || nb > e {
				c.normal[e*fem.NumFaces+f] = re.FaceUnitNormal(geo, f)
			}
		}
	}
	if len(external) > 0 {
		c.ext = make([]*ExternalFace, nE*fem.NumFaces)
		for i := range external {
			c.ext[external[i].Elem*fem.NumFaces+external[i].Face] = &external[i]
		}
	}
	return c
}

// inflow returns the inflow bitmap of direction om: one bit per
// (element, face), set on the faces upwind of their element.
func (c *classifier) inflow(om [3]float64) []uint64 {
	classifications.Add(1)
	in := make([]uint64, c.words)
	for e := range c.m.Elems {
		for f := 0; f < fem.NumFaces; f++ {
			fc := &c.m.Elems[e].Faces[f]
			i := e*fem.NumFaces + f
			switch n := &c.normal[i]; {
			case fc.Neighbor >= 0 && fc.Neighbor <= e:
				// Judged from the neighbour's side.
			case fc.Neighbor < 0 && c.ext != nil && c.ext[i] != nil:
				if ExternalInflow(om, c.ext[i].Normal, c.ext[i].Canonical) {
					setFaceBit(in, e, f)
				}
			case om[0]*n[0]+om[1]*n[1]+om[2]*n[2] < 0:
				setFaceBit(in, e, f)
			case fc.Neighbor >= 0:
				setFaceBit(in, fc.Neighbor, fc.NeighborFace)
			}
		}
	}
	return in
}

// upwind returns each element's upwind neighbours under the
// classification in, in (lower element, face) order. An element has at
// most NumFaces of them, so the lists share one backing array.
func (c *classifier) upwind(in []uint64) [][]int {
	up := make([][]int, c.m.NumElems())
	back := make([]int, len(up)*fem.NumFaces)
	for e := range up {
		up[e] = back[e*fem.NumFaces : e*fem.NumFaces : (e+1)*fem.NumFaces]
	}
	for e := range c.m.Elems {
		for f := 0; f < fem.NumFaces; f++ {
			switch nb := c.m.Elems[e].Faces[f].Neighbor; {
			case nb <= e:
				// A boundary face, or judged from the neighbour's side.
			case isFaceBit(in, e, f):
				up[e] = append(up[e], nb)
			default:
				up[nb] = append(up[nb], e)
			}
		}
	}
	return up
}

// lagFaces marks the inflow face through which each lagged coupling
// enters its element; nil without lagged couplings.
func (c *classifier) lagFaces(in []uint64, lagged []sweep.Edge) []uint64 {
	if len(lagged) == 0 {
		return nil
	}
	bits := make([]uint64, c.words)
	for _, l := range lagged {
		for f := 0; f < fem.NumFaces; f++ {
			if c.m.Elems[l.To].Faces[f].Neighbor == l.From && isFaceBit(in, l.To, f) {
				setFaceBit(bits, l.To, f)
			}
		}
	}
	return bits
}
