// Package snapinput parses UnSNAP input decks. The format follows SNAP's
// spirit (short lower-case keys, one problem per file) in a plain
// key=value syntax:
//
//	! UnSNAP deck — comments start with '!' or '#'
//	nx=16 ny=16 nz=16
//	lx=1.0 ly=1.0 lz=1.0
//	nang=6  ng=8
//	mat_opt=1 src_opt=0
//	order=1 twist=0.001
//	epsi=1.0e-4 iitm=5 oitm=1
//	npey=2 npez=2
//	scheme=angle/ELEMENT/GROUP
//	solver=GE
//
// Keys may appear in any order, several per line. Unknown keys are
// rejected so typos fail loudly, as SNAP does.
package snapinput

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"unsnap/internal/core"
)

// Deck is the parsed input: the problem shape plus solver settings, using
// SNAP's names where SNAP has them (iitm/oitm are SNAP's inner/outer
// iteration limits; npey/npez is the 2D KBA rank grid).
type Deck struct {
	NX, NY, NZ int
	LX, LY, LZ float64
	NAng       int // angles per octant
	NG         int // energy groups
	MatOpt     int
	SrcOpt     int
	Order      int
	Twist      float64
	Epsi       float64
	IITM       int // max inners per outer
	OITM       int // max outers
	NPEY, NPEZ int // rank grid
	Scheme     string
	Solver     string
	Threads    int
	Fixup      bool // finite-difference baseline only
	ReflX      bool // reflective boundary on the x faces
	ReflY      bool
	ReflZ      bool
	PGCPolar   int // product Gauss-Chebyshev polar count (0 = SNAP set)
	PGCAzi     int
	ScatOrder  int // scattering anisotropy order (0 or 1)
}

// Default returns the deck defaults (a small, quick problem).
func Default() Deck {
	return Deck{
		NX: 8, NY: 8, NZ: 8,
		LX: 1, LY: 1, LZ: 1,
		NAng: 4, NG: 4,
		MatOpt: 1, SrcOpt: 0,
		Order: 1, Twist: 0.001,
		Epsi: 1e-4, IITM: 5, OITM: 1,
		NPEY: 1, NPEZ: 1,
		Scheme: "engine", Solver: "GE",
	}
}

// Parse reads a deck, applying values over Default.
func Parse(r io.Reader) (Deck, error) {
	d := Default()
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexAny(text, "!#"); i >= 0 {
			text = text[:i]
		}
		for _, tok := range strings.Fields(text) {
			key, val, ok := strings.Cut(tok, "=")
			if !ok {
				return d, fmt.Errorf("snapinput: line %d: token %q is not key=value", line, tok)
			}
			if err := d.set(strings.ToLower(key), val); err != nil {
				return d, fmt.Errorf("snapinput: line %d: %w", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return d, fmt.Errorf("snapinput: %w", err)
	}
	return d, d.Validate()
}

// ParseString parses a deck held in a string.
func ParseString(s string) (Deck, error) { return Parse(strings.NewReader(s)) }

func (d *Deck) set(key, val string) error {
	atoi := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("key %s: %w", key, err)
		}
		*dst = v
		return nil
	}
	atof := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("key %s: %w", key, err)
		}
		*dst = v
		return nil
	}
	switch key {
	case "nx":
		return atoi(&d.NX)
	case "ny":
		return atoi(&d.NY)
	case "nz":
		return atoi(&d.NZ)
	case "lx":
		return atof(&d.LX)
	case "ly":
		return atof(&d.LY)
	case "lz":
		return atof(&d.LZ)
	case "nang":
		return atoi(&d.NAng)
	case "ng":
		return atoi(&d.NG)
	case "mat_opt":
		return atoi(&d.MatOpt)
	case "src_opt":
		return atoi(&d.SrcOpt)
	case "order":
		return atoi(&d.Order)
	case "twist":
		return atof(&d.Twist)
	case "epsi":
		return atof(&d.Epsi)
	case "iitm":
		return atoi(&d.IITM)
	case "oitm":
		return atoi(&d.OITM)
	case "npey":
		return atoi(&d.NPEY)
	case "npez":
		return atoi(&d.NPEZ)
	case "threads":
		return atoi(&d.Threads)
	case "scheme":
		d.Scheme = val
		return nil
	case "solver":
		d.Solver = strings.ToUpper(val)
		return nil
	case "fixup", "refl_x", "refl_y", "refl_z":
		v, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("key %s: %w", key, err)
		}
		switch key {
		case "fixup":
			d.Fixup = v
		case "refl_x":
			d.ReflX = v
		case "refl_y":
			d.ReflY = v
		case "refl_z":
			d.ReflZ = v
		}
		return nil
	case "pgc_polar":
		return atoi(&d.PGCPolar)
	case "pgc_azi":
		return atoi(&d.PGCAzi)
	case "scat_order":
		return atoi(&d.ScatOrder)
	default:
		return fmt.Errorf("unknown key %q", key)
	}
}

// Validate applies the same sanity rules the solver constructors enforce,
// so deck errors surface with input-file context.
func (d *Deck) Validate() error {
	switch {
	case d.NX < 1 || d.NY < 1 || d.NZ < 1:
		return fmt.Errorf("snapinput: grid %dx%dx%d invalid", d.NX, d.NY, d.NZ)
	case d.LX <= 0 || d.LY <= 0 || d.LZ <= 0:
		return fmt.Errorf("snapinput: extents must be positive")
	case d.NAng < 1:
		return fmt.Errorf("snapinput: nang must be >= 1")
	case d.NG < 1:
		return fmt.Errorf("snapinput: ng must be >= 1")
	case d.Order < 1:
		return fmt.Errorf("snapinput: order must be >= 1")
	case d.Epsi <= 0:
		return fmt.Errorf("snapinput: epsi must be positive")
	case d.IITM < 1 || d.OITM < 1:
		return fmt.Errorf("snapinput: iitm and oitm must be >= 1")
	case d.NPEY < 1 || d.NPEZ < 1:
		return fmt.Errorf("snapinput: npey and npez must be >= 1")
	case d.Solver == "": // the codec's empty default is not a deck spelling
		return fmt.Errorf("snapinput: solver must be set")
	}
	if err := new(core.SolverKind).UnmarshalText([]byte(d.Solver)); err != nil {
		return fmt.Errorf("snapinput: solver: %w", err)
	}
	return nil
}
