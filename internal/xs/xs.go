// Package xs generates the artificial multigroup cross-section and fixed
// source data used by UnSNAP. SNAP (and therefore UnSNAP) does not read
// nuclear data files; it synthesises representative data from a handful of
// input options so that the arithmetic and memory traffic of a production
// transport code are reproduced without any proprietary data.
//
// The constants follow SNAP's spirit (two materials, mild per-group
// scaling, a banded scattering matrix); the exact values are the
// constants below and the formulas in NewLibrary. The scattering ratio
// sigs/sigt is kept at or below 0.6 so that source iteration converges
// briskly.
package xs

import "fmt"

// Material identifiers. SNAP's mat_opt selects how the two materials are
// laid out in the spatial domain.
const (
	Mat1 = 0 // background material: sigt = 1.0, sigs = 0.5
	Mat2 = 1 // centre material:     sigt = 2.0, sigs = 1.2
)

// NumMaterials is the number of distinct materials in the library.
const NumMaterials = 2

// Library holds multigroup cross sections for every material.
// Slices are indexed [material][group] and [material][fromGroup][toGroup];
// group 0 is the highest energy group, as in SNAP.
type Library struct {
	NumGroups int
	Total     [][]float64   // sigma_t
	Absorb    [][]float64   // sigma_a
	ScatTotal [][]float64   // sigma_s (row sum of Scatter)
	Scatter   [][][]float64 // sigma_s(g -> g') (P0, isotropic component)
	// ScatterP1 is the first-moment (linearly anisotropic) scattering
	// matrix sigma_s1(g -> g'), nil for purely isotropic data. The P1
	// component redistributes direction without creating or destroying
	// particles, so it does not enter the balance.
	ScatterP1 [][][]float64
}

// MeanScatteringCosine is the mu-bar used by NewLibraryP1: every P1 row is
// the P0 row scaled by this factor, a mildly forward-peaked medium.
const MeanScatteringCosine = 0.3

// NewLibraryP1 builds the two-material library with a linearly anisotropic
// (P1) scattering component: sigma_s1 = MeanScatteringCosine * sigma_s0,
// element-wise over the group-transfer matrix.
func NewLibraryP1(groups int) (*Library, error) {
	lib, err := NewLibrary(groups)
	if err != nil {
		return nil, err
	}
	lib.ScatterP1 = make([][][]float64, NumMaterials)
	for m := 0; m < NumMaterials; m++ {
		lib.ScatterP1[m] = make([][]float64, groups)
		for g := 0; g < groups; g++ {
			row := make([]float64, groups)
			for gp := 0; gp < groups; gp++ {
				row[gp] = MeanScatteringCosine * lib.Scatter[m][g][gp]
			}
			lib.ScatterP1[m][g] = row
		}
	}
	return lib, nil
}

// base cross sections for group 0 of each material.
var (
	baseAbsorb  = [NumMaterials]float64{0.5, 0.8}
	baseScatter = [NumMaterials]float64{0.5, 1.2}
)

// groupScale returns the per-group multiplicative factor applied to all
// base cross sections: higher group index (lower energy) means slightly
// larger cross sections, echoing SNAP's +0.01-per-group ramp.
func groupScale(g int) float64 { return 1 + 0.01*float64(g) }

// In-group / down-scatter / up-scatter fractions for the banded scattering
// matrix. Down-scatter mass decays geometrically with distance; any mass
// that cannot be placed (edge groups) is folded back in-group so each row
// sums exactly to ScatTotal.
const (
	upFraction   = 0.05
	downFraction = 0.25
	downDecay    = 0.5
)

// NewLibrary builds the two-material library for the given number of
// energy groups.
func NewLibrary(groups int) (*Library, error) {
	if groups < 1 {
		return nil, fmt.Errorf("xs: need at least 1 group, got %d", groups)
	}
	lib := &Library{
		NumGroups: groups,
		Total:     make([][]float64, NumMaterials),
		Absorb:    make([][]float64, NumMaterials),
		ScatTotal: make([][]float64, NumMaterials),
		Scatter:   make([][][]float64, NumMaterials),
	}
	for m := 0; m < NumMaterials; m++ {
		lib.Total[m] = make([]float64, groups)
		lib.Absorb[m] = make([]float64, groups)
		lib.ScatTotal[m] = make([]float64, groups)
		lib.Scatter[m] = make([][]float64, groups)
		for g := 0; g < groups; g++ {
			sc := groupScale(g)
			sa := baseAbsorb[m] * sc
			ss := baseScatter[m] * sc
			lib.Absorb[m][g] = sa
			lib.ScatTotal[m][g] = ss
			lib.Total[m][g] = sa + ss
			lib.Scatter[m][g] = scatterRow(g, groups, ss)
		}
	}
	return lib, nil
}

// NewLibraryRatio builds the two-material library with every group's
// scattering ratio sigs/sigt pinned to c instead of the defaults' 0.5/0.6.
// The per-material, per-group total cross section is preserved — only the
// absorption/scattering split moves — so the optical thickness of a
// problem is unchanged while its source-iteration convergence rate (which
// c bounds) is dialled directly. Scattering-dominated acceleration
// benchmarks use c >= 0.9. c must lie in (0, 1): c = 1 would leave no
// absorption and a singular infinite-medium limit.
func NewLibraryRatio(groups int, c float64) (*Library, error) {
	if !(c > 0 && c < 1) {
		return nil, fmt.Errorf("xs: scattering ratio must lie in (0, 1), got %v", c)
	}
	lib, err := NewLibrary(groups)
	if err != nil {
		return nil, err
	}
	for m := 0; m < NumMaterials; m++ {
		for g := 0; g < groups; g++ {
			total := lib.Total[m][g]
			ss := c * total
			lib.ScatTotal[m][g] = ss
			lib.Absorb[m][g] = total - ss
			lib.Scatter[m][g] = scatterRow(g, groups, ss)
		}
	}
	return lib, nil
}

// scatterRow distributes the total scattering cross section ss of group g
// over destination groups.
func scatterRow(g, groups int, ss float64) []float64 {
	row := make([]float64, groups)
	up := 0.0
	if g > 0 {
		up = upFraction
	}
	down := 0.0
	if g < groups-1 {
		down = downFraction
	}
	inGroup := 1 - up - down
	row[g] = inGroup * ss
	if up > 0 {
		row[g-1] = up * ss
	}
	if down > 0 {
		// Geometric decay over groups g+1 .. groups-1, normalised so the
		// down-scatter block carries exactly `down` of the mass.
		norm := 0.0
		wgt := 1.0
		for k := g + 1; k < groups; k++ {
			norm += wgt
			wgt *= downDecay
		}
		wgt = 1.0
		for k := g + 1; k < groups; k++ {
			row[k] = down * ss * wgt / norm
			wgt *= downDecay
		}
	}
	return row
}

// Material layout options (SNAP mat_opt).
const (
	MatOptHomogeneous = 0 // all material 1
	MatOptCentre      = 1 // material 2 in the centred half-cube
)

// Source layout options (SNAP src_opt).
const (
	SrcOptEverywhere = 0 // unit isotropic source everywhere
	SrcOptCentre     = 1 // unit isotropic source in the centred half-cube
)

// inCentreHalfCube reports whether the fractional position (each component
// in [0,1]) lies inside the centred half-cube [0.25, 0.75)^3.
func inCentreHalfCube(fx, fy, fz float64) bool {
	in := func(f float64) bool { return f >= 0.25 && f < 0.75 }
	return in(fx) && in(fy) && in(fz)
}

// MaterialAt returns the material index at the fractional domain position
// (fx, fy, fz) under the given material option.
func MaterialAt(matOpt int, fx, fy, fz float64) int {
	if matOpt == MatOptCentre && inCentreHalfCube(fx, fy, fz) {
		return Mat2
	}
	return Mat1
}

// SourceAt returns the fixed isotropic source strength at the fractional
// domain position under the given source option. SNAP uses a unit source.
func SourceAt(srcOpt int, fx, fy, fz float64) float64 {
	if srcOpt == SrcOptEverywhere {
		return 1
	}
	if inCentreHalfCube(fx, fy, fz) {
		return 1
	}
	return 0
}

// ValidateOptions checks that the material and source options are known.
func ValidateOptions(matOpt, srcOpt int) error {
	if matOpt != MatOptHomogeneous && matOpt != MatOptCentre {
		return fmt.Errorf("xs: unknown material option %d", matOpt)
	}
	if srcOpt != SrcOptEverywhere && srcOpt != SrcOptCentre {
		return fmt.Errorf("xs: unknown source option %d", srcOpt)
	}
	return nil
}

// ScatteringRatio returns sigs/sigt for material m, group g — the quantity
// that bounds the source-iteration convergence rate.
func (l *Library) ScatteringRatio(m, g int) float64 {
	return l.ScatTotal[m][g] / l.Total[m][g]
}
