package gen

import (
	"fmt"
	"math"

	"repro/perfbench/oracle"
)

// Node is a set-algebra expression over generated shapes.
type Node struct {
	Op   string // rel | union | intersect | minus
	S    *Shape
	L, R *Node
}

// Rel is the leaf for one shape.
func Rel(s *Shape) *Node { return &Node{Op: "rel", S: s} }

func Union(l, r *Node) *Node     { return &Node{Op: "union", L: l, R: r} }
func Intersect(l, r *Node) *Node { return &Node{Op: "intersect", L: l, R: r} }
func Minus(l, r *Node) *Node     { return &Node{Op: "minus", L: l, R: r} }

// Dim returns the expression's dimension.
func (n *Node) Dim() int {
	if n.Op == "rel" {
		return n.S.Dim
	}
	return n.L.Dim()
}

// Leaves returns the shapes the expression reads, left to right.
func (n *Node) Leaves() []*Shape {
	if n.Op == "rel" {
		return []*Shape{n.S}
	}
	return append(n.L.Leaves(), n.R.Leaves()...)
}

// Contains evaluates membership from the generated rows. tol loosens
// every row for positive sets and tightens the subtrahend of a minus,
// so a point on a shared boundary (measure zero) never fails the check
// through rounding alone.
func (n *Node) Contains(x []float64, tol float64) bool {
	switch n.Op {
	case "rel":
		return n.S.Contains(x, tol)
	case "union":
		return n.L.Contains(x, tol) || n.R.Contains(x, tol)
	case "intersect":
		return n.L.Contains(x, tol) && n.R.Contains(x, tol)
	default:
		return n.L.Contains(x, tol) && !n.R.Contains(x, -tol)
	}
}

// SQL renders the expression as a CDB-SQL set expression.
func (n *Node) SQL() string {
	switch n.Op {
	case "rel":
		return "SELECT * FROM " + n.S.Name
	case "union":
		return "(" + n.L.SQL() + ") UNION (" + n.R.SQL() + ")"
	case "intersect":
		return "(" + n.L.SQL() + ") INTERSECT (" + n.R.SQL() + ")"
	default:
		return "(" + n.L.SQL() + ") EXCEPT (" + n.R.SQL() + ")"
	}
}

// JSON returns the expression as a /v1/expr operator tree.
func (n *Node) JSON() map[string]any {
	if n.Op == "rel" {
		return map[string]any{"op": "rel", "name": n.S.Name}
	}
	return map[string]any{"op": n.Op, "args": []any{n.L.JSON(), n.R.JSON()}}
}

// Oracle is the exact reference of one generated expression: its
// volume and a partition of it into cells with exact masses.
type Oracle struct {
	Volume float64
	Probs  []float64
	// Cell maps a point of the set to its cell index.
	Cell func(x []float64) int
}

func boxOf(s *Shape) oracle.Box { return oracle.Box{Lo: s.Lo, Hi: s.Hi} }

// Exact computes the oracle of an expression the generator can answer
// exactly: any set expression over boxes (coordinate-compressed grid),
// a single simplex or mapped shape (closed form), or a union of
// pairwise disjoint such shapes.
func (n *Node) Exact() (*Oracle, error) {
	leaves := n.Leaves()
	allBoxes := true
	for _, s := range leaves {
		allBoxes = allBoxes && s.Kind == KindBox
	}
	if allBoxes {
		return n.boxOracle(leaves), nil
	}
	if n.Op == "rel" {
		return shapeOracle(n.S), nil
	}
	if n.Op != "union" {
		return nil, fmt.Errorf("gen: no exact oracle for %s over mixed shapes", n.Op)
	}
	var parts []*Shape
	for _, s := range leaves {
		parts = append(parts, s)
	}
	return disjointOracle(parts), nil
}

func (n *Node) boxOracle(leaves []*Shape) *Oracle {
	boxes := make([]oracle.Box, len(leaves))
	for i, s := range leaves {
		boxes[i] = boxOf(s)
	}
	in := func(x []float64) bool { return n.Contains(x, 0) }
	c := oracle.GridCentroid(boxes, in)
	cuts := []float64{c[0], c[1]}
	vol, cells := oracle.GridVolume(boxes, cuts, in)
	probs := make([]float64, len(cells))
	for i, v := range cells {
		probs[i] = v / vol
	}
	return &Oracle{Volume: vol, Probs: probs, Cell: func(x []float64) int {
		k := 0
		for i, cut := range cuts {
			if x[i] >= cut {
				k |= 1 << i
			}
		}
		return k
	}}
}

// shapeOracle splits one convex shape into four cells of mass 1/4:
// quadrants around the center for boxes and mapped shapes (in the
// coordinates u = W(x - c) for the latter), and four slices of equal
// mass along the first axis for simplices.
func shapeOracle(s *Shape) *Oracle {
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	switch s.Kind {
	case KindBox:
		vol := 1.0
		for i := range s.Lo {
			vol *= s.Hi[i] - s.Lo[i]
		}
		return &Oracle{Volume: vol, Probs: probs, Cell: func(x []float64) int {
			k := 0
			for i := 0; i < 2; i++ {
				if x[i] >= (s.Lo[i]+s.Hi[i])/2 {
					k |= 1 << i
				}
			}
			return k
		}}
	case KindSimplex:
		var cuts [3]float64
		for q := 1; q <= 3; q++ {
			cuts[q-1] = oracle.SimplexCut(s.Dim, float64(q)/4)
		}
		return &Oracle{Volume: oracle.SimplexVolume(s.Dim, s.S), Probs: probs, Cell: func(x []float64) int {
			t := (x[0] - s.Lo[0]) / s.S
			k := 0
			for k < 3 && t >= cuts[k] {
				k++
			}
			return k
		}}
	default:
		// Rows come in pairs W_i x <= hi_i, -W_i x <= -lo_i.
		d := s.Dim
		lo, hi := make([]float64, d), make([]float64, d)
		for i := 0; i < d; i++ {
			hi[i], lo[i] = s.B[2*i], -s.B[2*i+1]
		}
		return &Oracle{Volume: oracle.SlabVolume(s.W, lo, hi), Probs: probs, Cell: func(x []float64) int {
			k := 0
			for i := 0; i < 2; i++ {
				v := 0.0
				for j, w := range s.W[i] {
					v += w * x[j]
				}
				if v >= (lo[i]+hi[i])/2 {
					k |= 1 << i
				}
			}
			return k
		}}
	}
}

func disjointOracle(parts []*Shape) *Oracle {
	subs := make([]*Oracle, len(parts))
	total := 0.0
	for i, s := range parts {
		subs[i] = shapeOracle(s)
		total += subs[i].Volume
	}
	var probs []float64
	for _, o := range subs {
		for _, p := range o.Probs {
			probs = append(probs, p*o.Volume/total)
		}
	}
	return &Oracle{Volume: total, Probs: probs, Cell: func(x []float64) int {
		best, bestViol := 0, math.Inf(1)
		for i, s := range parts {
			if v := violation(s, x); v < bestViol {
				best, bestViol = i, v
			}
		}
		return 4*best + subs[best].Cell(x)
	}}
}

// violation is the largest amount by which x breaks a row of s (<= 0
// inside).
func violation(s *Shape, x []float64) float64 {
	m := math.Inf(-1)
	for i, a := range s.A {
		v := -s.B[i]
		for j, c := range a {
			v += c * x[j]
		}
		m = math.Max(m, v)
	}
	return m
}

// Separated reports whether two shapes' bounding boxes are disjoint,
// which the disjoint-union oracle requires.
func Separated(a, b *Shape) bool {
	alo, ahi := a.BBox()
	blo, bhi := b.BBox()
	for i := range alo {
		if ahi[i] < blo[i] || bhi[i] < alo[i] {
			return true
		}
	}
	return false
}

// BBox returns the shape's axis-aligned bounding box.
func (s *Shape) BBox() (lo, hi []float64) {
	d := s.Dim
	lo, hi = make([]float64, d), make([]float64, d)
	switch s.Kind {
	case KindBox:
		copy(lo, s.Lo)
		copy(hi, s.Hi)
	case KindSimplex:
		for i := range lo {
			lo[i], hi[i] = s.Lo[i], s.Lo[i]+s.S
		}
	default:
		// x = C' + W^{-1} u with |u_i| <= 1 around the quantized center:
		// the half-extent along axis i is Σ_j |(W^{-1})_{ij}|.
		inv := invert(s.W)
		for i := 0; i < d; i++ {
			mid := 0.0
			ext := 0.0
			for j := 0; j < d; j++ {
				m := (s.B[2*j] - s.B[2*j+1]) / 2
				mid += inv[i][j] * m
				ext += math.Abs(inv[i][j]) * (s.B[2*j] + s.B[2*j+1]) / 2
			}
			lo[i], hi[i] = mid-ext, mid+ext
		}
	}
	return lo, hi
}

// invert returns the inverse of a small square matrix (Gauss–Jordan).
func invert(m [][]float64) [][]float64 {
	n := len(m)
	a := make([][]float64, n)
	for i := range m {
		a[i] = make([]float64, 2*n)
		copy(a[i], m[i])
		a[i][n+i] = 1
	}
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		a[p], a[c] = a[c], a[p]
		f := a[c][c]
		for k := range a[c] {
			a[c][k] /= f
		}
		for r := 0; r < n; r++ {
			if r != c && a[r][c] != 0 {
				g := a[r][c]
				for k := range a[r] {
					a[r][k] -= g * a[c][k]
				}
			}
		}
	}
	inv := make([][]float64, n)
	for i := range a {
		inv[i] = a[i][n:]
	}
	return inv
}
