package mesh

import (
	"fmt"
	"sort"

	"unsnap/internal/fem"
)

// RemoteFace is the cross-rank coupling metadata of one partition-boundary
// face: everything a communication protocol needs to move angular flux
// across the rank boundary, precomputed once at partition time.
type RemoteFace struct {
	Key FaceKey   // our side of the face
	Ref RemoteRef // the peer side

	// Perm maps our face-node index k to the peer's face-node index of the
	// geometrically coincident node (the MatchFacePair permutation): halo
	// data arriving in the peer's face-node order is read through Perm to
	// land on our nodes.
	Perm []int

	// Normal is the pair's canonical unit normal: the outward normal of
	// the canonical side (the element with the lower global index),
	// computed exactly as the solver computes element face normals. Both
	// sides of the pair share this one vector, so their per-ordinate
	// upwind/downwind classification agrees exactly even on near-tangent
	// twisted faces — the invariant the pipelined halo protocol's message
	// accounting depends on — and matches the single-domain solver, which
	// also classifies every interior face from its lower-element side.
	Normal [3]float64

	// Canonical reports whether the local side is the canonical one. The
	// shared classification rule is: the local side is downwind (receives
	// upwind flux through this face) for ordinate direction om iff
	// Canonical && om.Normal < 0, or !Canonical && om.Normal >= 0.
	Canonical bool
}

// RemoteFaces computes the coupling metadata of every cross-partition face,
// one deterministically ordered slice per rank (ascending element, then
// face index). Both communication protocols build on it the same way:
// Normal/Canonical decide, identically on both sides, which side of every
// face is upwind for each ordinate, and Perm maps each transfer — a bulk
// halo exchange (lagged) or a streamed message (pipelined) — onto the
// receiver's face nodes.
func (p *Partition) RemoteFaces(re *fem.RefElement) ([][]RemoteFace, error) {
	out := make([][]RemoteFace, len(p.Subs))
	for r, sub := range p.Subs {
		keys := make([]FaceKey, 0, len(sub.Remote))
		for key := range sub.Remote {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Elem != keys[j].Elem {
				return keys[i].Elem < keys[j].Elem
			}
			return keys[i].Face < keys[j].Face
		})
		faces := make([]RemoteFace, 0, len(keys))
		for _, key := range keys {
			ref := sub.Remote[key]
			peer := p.Subs[ref.Rank]
			ga := sub.Mesh.Elems[key.Elem].Geometry()
			gb := peer.Mesh.Elems[ref.Elem].Geometry()
			perm, err := MatchFacePair(re, ga, key.Face, gb, ref.Face)
			if err != nil {
				return nil, fmt.Errorf("mesh: matching rank %d face %v to rank %d: %w",
					r, key, ref.Rank, err)
			}
			rf := RemoteFace{
				Key: key, Ref: ref, Perm: perm,
				Canonical: sub.Global[key.Elem] < peer.Global[ref.Elem],
			}
			if rf.Canonical {
				rf.Normal = re.FaceUnitNormal(ga, key.Face)
			} else {
				rf.Normal = re.FaceUnitNormal(gb, ref.Face)
			}
			faces = append(faces, rf)
		}
		out[r] = faces
	}
	return out, nil
}
