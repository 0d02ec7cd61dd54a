// Package gen is the benchmark's seeded input generator. It places
// boxes, simplices, random-facet parallelotopes and thin rotated slabs
// with the SpiderWeb distributions (uniform, gaussian, diagonal, bit,
// Sierpinski; Katiyar et al., SIGSPATIAL 2020), lifts them to d = 2–6,
// and emits them as constraint-database program text, CDB-SQL
// statements and /v1/expr JSON trees. Every number is quantized to the
// six decimals the program text carries, so the oracle and the program
// see exactly the same geometry.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
)

// Kind names a shape family.
type Kind int

const (
	KindBox Kind = iota
	KindSimplex
	KindParallelotope // affine image of a cube with random facet normals
	KindSlab          // rotated box with one thin side (high sandwich ratio)
)

func (k Kind) String() string {
	return [...]string{"box", "simplex", "parallelotope", "slab"}[k]
}

// Shape is one convex relation of a generated program, kept in the
// form the oracle needs: the H-rows A x <= B the program receives, and
// a closed-form description (box bounds, simplex corner and size, or
// the matrix W whose rows bound the slabs lo_i <= W_i x <= hi_i).
type Shape struct {
	Name string
	Kind Kind
	Dim  int
	Vars []string // column names; nil means x1..xd
	A    [][]float64
	B    []float64

	Lo, Hi []float64   // box
	S      float64     // simplex: {x >= Lo, Σ(x - Lo) <= S}
	W      [][]float64 // parallelotope/slab: rows 2i, 2i+1 of A are ±W_i
}

// Rand is the generator's seeded source.
type Rand struct{ *rand.Rand }

// New returns a generator stream for seed and a purpose label, so each
// workload part draws from its own stream and adding one part does not
// shift the others.
func New(seed uint64, purpose string) *Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(purpose); i++ {
		h ^= uint64(purpose[i])
		h *= 1099511628211
	}
	return &Rand{rand.New(rand.NewPCG(seed, h))}
}

// Q quantizes v to the six decimals the program text carries.
func Q(v float64) float64 {
	f, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 6, 64), 64)
	return f
}

// Placement is a SpiderWeb point distribution over [0,1]^2.
type Placement int

const (
	Uniform Placement = iota
	Gaussian
	Diagonal
	Bit
	Sierpinski
	NumPlacements
)

func clamp01(v float64) float64 { return math.Min(1, math.Max(0, v)) }

// Point draws a center in [0,1]^2 from placement p.
func (r *Rand) Point(p Placement) (float64, float64) {
	switch p {
	case Gaussian:
		return clamp01(0.5 + 0.15*r.NormFloat64()), clamp01(0.5 + 0.15*r.NormFloat64())
	case Diagonal:
		t := r.Float64()
		if r.Float64() < 0.5 {
			return t, t
		}
		n := 0.05 * r.NormFloat64() / math.Sqrt2
		return clamp01(t + n), clamp01(t - n)
	case Bit:
		bits := func() float64 {
			v := 0.0
			for i := 1; i <= 8; i++ {
				if r.Float64() < 0.3 {
					v += math.Ldexp(1, -i)
				}
			}
			return v
		}
		return bits(), bits()
	case Sierpinski:
		x, y := r.Float64(), r.Float64()
		corners := [3][2]float64{{0, 0}, {1, 0}, {0.5, 1}}
		for i := 0; i < 10; i++ {
			c := corners[r.IntN(3)]
			x, y = (x+c[0])/2, (y+c[1])/2
		}
		return x, y
	}
	return r.Float64(), r.Float64()
}

// Center lifts a SpiderWeb point to d dimensions: the placement fixes
// the first two coordinates, the rest are uniform in [0.2, 0.8]. The
// result is scaled into [margin, 1-margin] so shapes stay in the
// positive orthant.
func (r *Rand) Center(p Placement, d int, margin float64) []float64 {
	c := make([]float64, d)
	c[0], c[1] = r.Point(p)
	for i := 2; i < d; i++ {
		c[i] = 0.2 + 0.6*r.Float64()
	}
	for i := range c {
		c[i] = margin + (1-2*margin)*c[i]
	}
	return c
}

// NewBox returns the box [lo, hi] (quantized).
func NewBox(name string, lo, hi []float64) *Shape {
	d := len(lo)
	s := &Shape{Name: name, Kind: KindBox, Dim: d, Lo: make([]float64, d), Hi: make([]float64, d)}
	for i := 0; i < d; i++ {
		s.Lo[i], s.Hi[i] = Q(lo[i]), Q(hi[i])
		e := make([]float64, d)
		e[i] = 1
		s.A = append(s.A, e)
		s.B = append(s.B, s.Hi[i])
		ne := make([]float64, d)
		ne[i] = -1
		s.A = append(s.A, ne)
		s.B = append(s.B, -s.Lo[i])
	}
	return s
}

// NewSimplex returns the corner simplex {x >= lo, Σ(x_i - lo_i) <= size}.
func NewSimplex(name string, lo []float64, size float64) *Shape {
	d := len(lo)
	s := &Shape{Name: name, Kind: KindSimplex, Dim: d, Lo: make([]float64, d), S: Q(size)}
	ones := make([]float64, d)
	sum := 0.0
	for i := 0; i < d; i++ {
		s.Lo[i] = Q(lo[i])
		sum += s.Lo[i]
		ne := make([]float64, d)
		ne[i] = -1
		s.A = append(s.A, ne)
		s.B = append(s.B, -s.Lo[i])
		ones[i] = 1
	}
	// The quantized sum row keeps the exact corner/size semantics only
	// if its bound is representable: quantize the bound and derive S
	// back from it.
	b := Q(sum + s.S)
	s.S = b - sum
	s.A = append(s.A, ones)
	s.B = append(s.B, b)
	return s
}

// NewMapped returns {x : |W(x - c)|_inf <= 1} with W and c quantized.
func NewMapped(name string, kind Kind, w [][]float64, c []float64) *Shape {
	d := len(c)
	s := &Shape{Name: name, Kind: kind, Dim: d, W: make([][]float64, d)}
	for i := 0; i < d; i++ {
		s.W[i] = make([]float64, d)
		wc := 0.0
		for j := 0; j < d; j++ {
			s.W[i][j] = Q(w[i][j])
			wc += s.W[i][j] * Q(c[j])
		}
		// Rows W_i x <= wc + 1 and -W_i x <= 1 - wc with wc quantized,
		// so the slab width is exactly 2 in the emitted text too; the
		// oracle reads its widths and midpoints back from A and B.
		wcq := Q(wc)
		neg := make([]float64, d)
		for j := range neg {
			neg[j] = -s.W[i][j]
		}
		s.A = append(s.A, s.W[i], neg)
		s.B = append(s.B, Q(wcq+1), Q(1-wcq))
	}
	return s
}

// RandomRotation returns a d×d orthogonal matrix from a product of
// random Householder reflections.
func (r *Rand) RandomRotation(d int) [][]float64 {
	m := identity(d)
	for k := 0; k < 2; k++ {
		v := make([]float64, d)
		n := 0.0
		for i := range v {
			v[i] = r.NormFloat64()
			n += v[i] * v[i]
		}
		n = math.Sqrt(n)
		for i := range v {
			v[i] /= n
		}
		// m = (I - 2vv^T) m
		for j := 0; j < d; j++ {
			dot := 0.0
			for i := 0; i < d; i++ {
				dot += v[i] * m[i][j]
			}
			for i := 0; i < d; i++ {
				m[i][j] -= 2 * v[i] * dot
			}
		}
	}
	return m
}

func identity(d int) [][]float64 {
	m := make([][]float64, d)
	for i := range m {
		m[i] = make([]float64, d)
		m[i][i] = 1
	}
	return m
}

// Parallelotope draws a random-facet parallelotope of half-widths about
// h around c: W = diag(1/h) · (I + 0.35 G) with G Gaussian, so the 2d
// facet normals are random but the body stays well conditioned.
func (r *Rand) Parallelotope(name string, c []float64, h float64) *Shape {
	d := len(c)
	w := make([][]float64, d)
	for i := range w {
		w[i] = make([]float64, d)
		for j := range w[i] {
			g := 0.35 * r.NormFloat64() / math.Sqrt(float64(d))
			if i == j {
				g += 1
			}
			w[i][j] = g / h
		}
	}
	return NewMapped(name, KindParallelotope, w, c)
}

// Slab draws a randomly rotated box with half-widths h on every axis
// but one, which is h·thin: the sandwich ratio before rounding is
// about 1/thin.
func (r *Rand) Slab(name string, c []float64, h, thin float64) *Shape {
	d := len(c)
	rot := r.RandomRotation(d)
	w := make([][]float64, d)
	for i := range w {
		w[i] = make([]float64, d)
		s := h
		if i == 0 {
			s = h * thin
		}
		for j := range w[i] {
			w[i][j] = rot[i][j] / s
		}
	}
	return NewMapped(name, KindSlab, w, c)
}

// Vars returns the column names x1..xd.
func Vars(d int) []string {
	v := make([]string, d)
	for i := range v {
		v[i] = "x" + strconv.Itoa(i+1)
	}
	return v
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// linear renders Σ a_j x_j with explicit signs (the program grammar has
// no "+ -" juxtaposition).
func linear(a []float64, vars []string) string {
	var b strings.Builder
	for j, c := range a {
		if c == 0 {
			continue
		}
		switch {
		case b.Len() == 0 && c < 0:
			b.WriteString("-")
		case b.Len() > 0 && c < 0:
			b.WriteString(" - ")
		case b.Len() > 0:
			b.WriteString(" + ")
		}
		if math.Abs(c) != 1 {
			b.WriteString(num(math.Abs(c)))
			b.WriteString("*")
		}
		b.WriteString(vars[j])
	}
	if b.Len() == 0 {
		return "0"
	}
	return b.String()
}

// Tuple renders the shape's rows as one constraint tuple body.
func (s *Shape) Tuple(vars []string) string {
	parts := make([]string, len(s.A))
	for i := range s.A {
		parts[i] = linear(s.A[i], vars) + " <= " + num(s.B[i])
	}
	return "{ " + strings.Join(parts, ", ") + " }"
}

// Columns returns the shape's column names.
func (s *Shape) Columns() []string {
	if s.Vars != nil {
		return s.Vars
	}
	return Vars(s.Dim)
}

// Decl renders the shape as a `rel` declaration.
func (s *Shape) Decl() string {
	vars := s.Columns()
	return fmt.Sprintf("rel %s(%s) := %s;\n", s.Name, strings.Join(vars, ", "), s.Tuple(vars))
}

// UnionDecl renders a multi-tuple `rel` declaration: the union of the
// shapes' tuples under one name.
func UnionDecl(name string, parts ...*Shape) string {
	vars := parts[0].Columns()
	tuples := make([]string, len(parts))
	for i, s := range parts {
		tuples[i] = s.Tuple(vars)
	}
	return fmt.Sprintf("rel %s(%s) := %s;\n", name, strings.Join(vars, ", "), strings.Join(tuples, " | "))
}

// Contains reports whether x satisfies every generated row within tol.
func (s *Shape) Contains(x []float64, tol float64) bool {
	for i, a := range s.A {
		v := 0.0
		for j, c := range a {
			v += c * x[j]
		}
		if v > s.B[i]+tol {
			return false
		}
	}
	return true
}
