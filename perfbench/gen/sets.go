package gen

import (
	"fmt"
	"strings"
)

// Item is one member of a workload's working set: an expression with
// its exact oracle and the number of requests it gets per round.
type Item struct {
	Name   string // stable label: dimension and family, e.g. "d3.composed"
	Target string // the relation the program declares for it, if any
	Node   *Node
	Oracle *Oracle
	Weight int
}

// Program is a generated database: the shapes and the program text the
// system under test receives.
type Program struct {
	Shapes []*Shape
	extra  []string
}

// Add appends a shape and returns it.
func (p *Program) Add(s *Shape) *Shape {
	p.Shapes = append(p.Shapes, s)
	return s
}

// Text renders the whole program.
func (p *Program) Text() string {
	var b strings.Builder
	for _, s := range p.Shapes {
		b.WriteString(s.Decl())
	}
	for _, e := range p.extra {
		b.WriteString(e)
	}
	return b.String()
}

// maker numbers shapes and cycles the SpiderWeb placements, so every
// working set uses all five distributions.
type maker struct {
	r     *Rand
	p     *Program
	n     int
	place Placement
}

func (b *maker) name(prefix string) string {
	b.n++
	return fmt.Sprintf("%s%d", prefix, b.n)
}

func (b *maker) center(d int) []float64 {
	c := b.r.Center(b.place, d, 0.3)
	b.place = (b.place + 1) % NumPlacements
	return c
}

// box adds the box c + off·w ± h on every axis (off shifts axis 0 by
// off[0]·w, axis 1 by off[1]·w).
func (b *maker) box(c []float64, h float64, off0, off1 float64) *Shape {
	d := len(c)
	lo, hi := make([]float64, d), make([]float64, d)
	for i := range c {
		lo[i], hi[i] = c[i]-h, c[i]+h
	}
	lo[0] += off0 * 2 * h
	hi[0] += off0 * 2 * h
	lo[1] += off1 * 2 * h
	hi[1] += off1 * 2 * h
	return b.p.Add(NewBox(b.name("B"), lo, hi))
}

// overlapUnion is A ∪ B with B shifted by 30–50% of A's side along
// axis 0 and up to 20% along axis 1, so the overlap (and the union
// generator's rejection rate) stays within a narrow band.
func (b *maker) overlapUnion(d int) *Node {
	c := b.center(d)
	a := b.box(c, 0.1, 0, 0)
	o := b.box(c, 0.1, 0.3+0.2*b.r.Float64(), 0.2*b.r.Float64())
	return Union(Rel(a), Rel(o))
}

// minus is A \ B with B covering a corner of A.
func (b *maker) minus(d int) *Node {
	c := b.center(d)
	a := b.box(c, 0.1, 0, 0)
	o := b.box(c, 0.1, 0.5+0.2*b.r.Float64(), 0.5+0.2*b.r.Float64())
	return Minus(Rel(a), Rel(o))
}

// composed is (A ∪ C) ∩ B: A and C are disjoint, B straddles both.
func (b *maker) composed(d int) *Node {
	c := b.center(d)
	a := b.box(c, 0.1, 0, 0)
	cc := b.box(c, 0.1, 1.5, 0)
	lo, hi := append([]float64(nil), a.Lo...), append([]float64(nil), a.Hi...)
	lo[0] = a.Lo[0] + (0.2+0.1*b.r.Float64())*0.2
	hi[0] = cc.Lo[0] + (0.2+0.1*b.r.Float64())*0.2
	bb := b.p.Add(NewBox(b.name("B"), lo, hi))
	return Intersect(Union(Rel(a), Rel(cc)), Rel(bb))
}

func (b *maker) simplex(d int) *Shape {
	c := b.center(d)
	lo := make([]float64, d)
	for i := range lo {
		lo[i] = c[i] - 0.1
	}
	return b.p.Add(NewSimplex(b.name("S"), lo, 0.3))
}

func (b *maker) parallelotope(d int) *Shape {
	return b.p.Add(b.r.Parallelotope(b.name("P"), b.center(d), 0.1))
}

func (b *maker) slab(d int) *Shape {
	return b.p.Add(b.r.Slab(b.name("L"), b.center(d), 0.1, 0.05))
}

// disjoint is simplex ∪ parallelotope, redrawn until their bounding
// boxes are separated (the union oracle sums disjoint parts).
func (b *maker) disjoint(d int) *Node {
	for {
		mark := len(b.p.Shapes)
		s := b.simplex(d)
		c := b.center(d)
		for i := range c {
			c[i] += 0.4
		}
		q := b.p.Add(b.r.Parallelotope(b.name("P"), c, 0.1))
		if Separated(s, q) {
			return Union(Rel(s), Rel(q))
		}
		b.p.Shapes = b.p.Shapes[:mark]
	}
}

func newMaker(seed uint64, purpose string) *maker {
	r := New(seed, purpose)
	return &maker{r: r, p: &Program{}, place: Placement(r.IntN(int(NumPlacements)))}
}

func (b *maker) item(name string, n *Node, weight int) Item {
	o, err := n.Exact()
	if err != nil {
		panic(err) // the makers only emit families the oracle answers
	}
	return Item{Name: name, Node: n, Oracle: o, Weight: weight}
}

// WarmDraw is the warm-draw working set: nine expressions over
// d = 2–6 covering every family. The weights (requests per round) put
// the median request in the middle of the d3.composed class (35–65% of
// a round sorted by cost) and the 90th percentile in the middle of the
// d6 class (80–100%), away from the steps between classes.
func WarmDraw(seed uint64) (*Program, []Item) {
	b := newMaker(seed, "warm-draw")
	items := []Item{
		b.item("d2.union", b.overlapUnion(2), 2),
		b.item("d2.minus", b.minus(2), 2),
		b.item("d2.slab", Rel(b.slab(2)), 2),
		b.item("d2.simplex", Rel(b.simplex(2)), 2),
		b.item("d3.disjoint", b.disjoint(3), 6),
		b.item("d3.composed", b.composed(3), 12),
		b.item("d4.slab", Rel(b.slab(4)), 3),
		b.item("d5.simplex", Rel(b.simplex(5)), 3),
		b.item("d6.parallelotope", Rel(b.parallelotope(6)), 8),
	}
	return b.p, items
}

// named declares an expression over boxes or shapes as one relation of
// its own: a single shape keeps its declaration, a union of two shapes
// becomes a two-tuple relation (the overlap stays, so the prepared
// union generator rejects).
func (b *maker) named(name string, n *Node, weight int) Item {
	it := b.item(name, n, weight)
	if n.Op == "rel" {
		it.Target = n.S.Name
		return it
	}
	it.Target = b.name("U")
	leaves := n.Leaves()
	b.p.extra = append(b.p.extra, UnionDecl(it.Target, leaves...))
	// The leaves are declared only through the union.
	keep := b.p.Shapes[:0]
	for _, s := range b.p.Shapes {
		if s != leaves[0] && s != leaves[1] {
			keep = append(keep, s)
		}
	}
	b.p.Shapes = keep
	return it
}

// Prism is a sheared prism over a corner simplex: the points (x, z)
// with x in the simplex and a·x + l <= z <= a·x + l + h. Projecting z
// away gives the simplex exactly, so its shadow, shadow volume s^d/d!
// and cell masses are known in closed form while Fourier–Motzkin has
// real rows to combine.
type Prism struct {
	Shape  *Shape
	Shadow *Shape // the simplex, not declared in the program
}

func (b *maker) prism(d int) *Prism {
	sh := b.simplex(d)
	b.p.Shapes = b.p.Shapes[:len(b.p.Shapes)-1]
	vars := append(Vars(d), "z")
	s := &Shape{Name: b.name("Q"), Kind: KindBox, Dim: d + 1, Vars: vars}
	for i, row := range sh.A {
		s.A = append(s.A, append(append([]float64(nil), row...), 0))
		s.B = append(s.B, sh.B[i])
	}
	a := make([]float64, d)
	for i := range a {
		a[i] = Q(0.5 * (b.r.Float64() - 0.5))
	}
	l := Q(0.1 * b.r.Float64())
	up := append(negate(a), 1) // z - a·x <= l + h
	dn := append(append([]float64(nil), a...), -1)
	s.A = append(s.A, up, dn)
	s.B = append(s.B, Q(l+0.2), -l)
	b.p.Add(s)
	return &Prism{Shape: s, Shadow: sh}
}

func negate(a []float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = -v
	}
	return out
}

// CacheChurn is the cache-churn working set, all in d = 2 so cold
// preparations stay in the tens of milliseconds: eight hot relations
// (two each of box, overlapping union, slab and simplex) kept warm, a
// cold list of 36 relations (7 boxes, 8 unions, 21 slabs) that is
// longer than the cache, and a sheared prism for projections. The 21
// slabs, the costliest misses, fill 83–97% of a round sorted by
// latency, so the 90th percentile falls in their middle.
func CacheChurn(seed uint64) (p *Program, hot, cold []Item, prism *Prism) {
	b := newMaker(seed, "cache-churn")
	for k := 0; k < 2; k++ {
		hot = append(hot,
			b.named("hot.box", Rel(b.box(b.center(2), 0.1, 0, 0)), 0),
			b.named("hot.union", b.overlapUnion(2), 0),
			b.named("hot.slab", Rel(b.slab(2)), 0),
			b.named("hot.simplex", Rel(b.simplex(2)), 0))
	}
	for k := 0; k < 7; k++ {
		cold = append(cold, b.named("cold.box", Rel(b.box(b.center(2), 0.1, 0, 0)), 0))
	}
	for k := 0; k < 8; k++ {
		cold = append(cold, b.named("cold.union", b.overlapUnion(2), 0))
	}
	for k := 0; k < 21; k++ {
		cold = append(cold, b.named("cold.slab", Rel(b.slab(2)), 0))
	}
	prism = b.prism(2)
	return b.p, hot, cold, prism
}

// Mover is a box of half-width W moving with velocity V over t in
// [0, 1]: the relation M(x1, x2, t). Its slice at t0 is the box
// C + V·t0 ± W.
type Mover struct {
	Shape *Shape
	C, V  []float64
	W     float64
}

// SliceBox returns the box of the slice at t0.
func (m *Mover) SliceBox(t0 float64) *Shape {
	lo, hi := make([]float64, 2), make([]float64, 2)
	for i := range lo {
		c := m.C[i] + m.V[i]*t0
		lo[i], hi[i] = c-m.W, c+m.W
	}
	s := &Shape{Name: m.Shape.Name, Kind: KindBox, Dim: 2, Lo: lo, Hi: hi}
	for i := 0; i < 2; i++ {
		e, ne := make([]float64, 2), make([]float64, 2)
		e[i], ne[i] = 1, -1
		s.A = append(s.A, e, ne)
		s.B = append(s.B, hi[i], -lo[i])
	}
	return s
}

func (b *maker) mover() *Mover {
	c := b.center(2)
	m := &Mover{C: []float64{Q(c[0]), Q(c[1])}, V: []float64{Q(0.2 * (b.r.Float64() - 0.5)), Q(0.2 * (b.r.Float64() - 0.5))}, W: 0.1}
	s := &Shape{Name: b.name("M"), Kind: KindBox, Dim: 3, Vars: []string{"x1", "x2", "t"}}
	s.A = [][]float64{{0, 0, 1}, {0, 0, -1}}
	s.B = []float64{1, 0}
	for i := 0; i < 2; i++ {
		up := []float64{0, 0, -m.V[i]}
		up[i] = 1
		dn := []float64{0, 0, m.V[i]}
		dn[i] = -1
		s.A = append(s.A, up, dn)
		s.B = append(s.B, Q(m.C[i]+m.W), Q(m.W-m.C[i]))
	}
	m.Shape = b.p.Add(s)
	return m
}

// SQLServe is the sql-serve working set: small warm relations in d = 2–3
// (boxes, simplices, a union, a slab) for draws and volumes, sheared
// prisms in d = 2 and 3 for symbolic (Fourier–Motzkin) projection, and a
// moving box for time slices.
func SQLServe(seed uint64) (p *Program, rels []Item, prisms []*Prism, mover *Mover) {
	b := newMaker(seed, "sql-serve")
	rels = []Item{
		b.named("d2.box", Rel(b.box(b.center(2), 0.1, 0, 0)), 0),
		b.named("d2.box", Rel(b.box(b.center(2), 0.1, 0, 0)), 0),
		b.named("d2.simplex", Rel(b.simplex(2)), 0),
		b.named("d2.union", b.overlapUnion(2), 0),
		b.named("d2.slab", Rel(b.slab(2)), 0),
		b.named("d3.box", Rel(b.box(b.center(3), 0.1, 0, 0)), 0),
		b.named("d3.simplex", Rel(b.simplex(3)), 0),
	}
	prisms = []*Prism{b.prism(2), b.prism(3)}
	mover = b.mover()
	return b.p, rels, prisms, mover
}
