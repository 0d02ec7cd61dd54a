package oracle_test

// Cross-checks of the benchmark's oracle against the program's own exact
// volume code (cdb.ExactVolume, polytope.RelationVolume) on small
// generated cases, plus the statistics against known values. The
// oracle itself never calls the program; only these tests do.

import (
	"math"
	"testing"

	cdb "repro"
	"repro/internal/polytope"
	"repro/perfbench/gen"
	"repro/perfbench/oracle"
)

func relation(t *testing.T, src, name string) *cdb.Relation {
	t.Helper()
	db, err := cdb.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	rel, ok := db.Relation(name)
	if !ok {
		t.Fatalf("relation %s missing", name)
	}
	return rel
}

func near(a, b, rel float64) bool { return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b)) }

func box(name string, lo, hi []float64) *gen.Shape { return gen.NewBox(name, lo, hi) }

// conj is the single-tuple relation of the rows of a and b together.
func conj(name string, a, b *gen.Shape) *gen.Shape {
	s := &gen.Shape{Name: name, Dim: a.Dim}
	s.A = append(append(s.A, a.A...), b.A...)
	s.B = append(append(s.B, a.B...), b.B...)
	return s
}

func TestGridVolumeMatchesRelationVolume(t *testing.T) {
	r := gen.New(1, "oracle-test")
	for d := 2; d <= 4; d++ {
		for k := 0; k < 5; k++ {
			lo, hi, lo2, hi2 := make([]float64, d), make([]float64, d), make([]float64, d), make([]float64, d)
			for i := 0; i < d; i++ {
				lo[i] = r.Float64()
				hi[i] = lo[i] + 0.2 + r.Float64()
				lo2[i] = lo[i] + 0.5*r.Float64()
				hi2[i] = lo2[i] + 0.2 + r.Float64()
			}
			a, b := box("A", lo, hi), box("B", lo2, hi2)
			ob := []oracle.Box{{Lo: a.Lo, Hi: a.Hi}, {Lo: b.Lo, Hi: b.Hi}}
			union := gen.Union(gen.Rel(a), gen.Rel(b))
			isect := gen.Intersect(gen.Rel(a), gen.Rel(b))
			minus := gen.Minus(gen.Rel(a), gen.Rel(b))
			in := func(n *gen.Node) func([]float64) bool {
				return func(x []float64) bool { return n.Contains(x, 0) }
			}
			gu, _ := oracle.GridVolume(ob, nil, in(union))
			gi, _ := oracle.GridVolume(ob, nil, in(isect))
			gm, _ := oracle.GridVolume(ob, nil, in(minus))

			wu, err := polytope.RelationVolume(relation(t, gen.UnionDecl("U", a, b), "U"))
			if err != nil {
				t.Fatal(err)
			}
			wi, err := cdb.ExactVolume(relation(t, conj("I", a, b).Decl(), "I"))
			if err != nil {
				t.Fatal(err)
			}
			wa, err := cdb.ExactVolume(relation(t, a.Decl(), "A"))
			if err != nil {
				t.Fatal(err)
			}
			if !near(gu, wu, 1e-9) || !near(gi, wi, 1e-9) || !near(gm, wa-wi, 1e-9) {
				t.Errorf("d=%d: grid union/intersection/minus %g %g %g, program %g %g %g", d, gu, gi, gm, wu, wi, wa-wi)
			}
		}
	}
}

func TestGridCellsPartitionTheVolume(t *testing.T) {
	a := box("A", []float64{0, 0, 0}, []float64{1, 1, 1})
	c := box("C", []float64{1.5, 0, 0}, []float64{2.5, 1, 1})
	b := box("B", []float64{0.3, 0, 0}, []float64{1.8, 1, 1})
	n := gen.Intersect(gen.Union(gen.Rel(a), gen.Rel(c)), gen.Rel(b))
	o, err := n.Exact()
	if err != nil {
		t.Fatal(err)
	}
	if !near(o.Volume, 0.7+0.3, 1e-12) {
		t.Fatalf("(A ∪ C) ∩ B volume %g, want 1", o.Volume)
	}
	sum := 0.0
	for _, p := range o.Probs {
		sum += p
	}
	if !near(sum, 1, 1e-12) {
		t.Fatalf("cell masses sum to %g", sum)
	}
}

func TestSimplexClosedForm(t *testing.T) {
	for d := 2; d <= 5; d++ {
		lo := make([]float64, d)
		for i := range lo {
			lo[i] = 0.1 * float64(i)
		}
		s := gen.NewSimplex("S", lo, 0.7)
		want, err := cdb.ExactVolume(relation(t, s.Decl(), "S"))
		if err != nil {
			t.Fatal(err)
		}
		if got := oracle.SimplexVolume(d, s.S); !near(got, want, 1e-9) {
			t.Errorf("d=%d: simplex volume %g, program %g", d, got, want)
		}
		// The first cell cut holds a quarter of the mass.
		c := oracle.SimplexCut(d, 0.25)
		cut := &gen.Shape{Name: "C", Dim: d, A: append([][]float64(nil), s.A...), B: append([]float64(nil), s.B...)}
		row := make([]float64, d)
		row[0] = 1
		cut.A = append(cut.A, row)
		cut.B = append(cut.B, lo[0]+c*s.S)
		part, err := cdb.ExactVolume(relation(t, cut.Decl(), "C"))
		if err != nil {
			t.Fatal(err)
		}
		if !near(part, want/4, 1e-5) {
			t.Errorf("d=%d: quarter cut holds %g of %g", d, part, want)
		}
	}
}

func TestMappedShapesClosedForm(t *testing.T) {
	r := gen.New(2, "oracle-test")
	for d := 2; d <= 4; d++ {
		c := r.Center(gen.Uniform, d, 0.3)
		for _, s := range []*gen.Shape{r.Parallelotope("P", c, 0.1), r.Slab("L", c, 0.1, 0.05)} {
			o, err := gen.Rel(s).Exact()
			if err != nil {
				t.Fatal(err)
			}
			want, err := polytope.RelationVolume(relation(t, s.Decl(), s.Name))
			if err != nil {
				t.Fatal(err)
			}
			if !near(o.Volume, want, 1e-6) {
				t.Errorf("d=%d %s: closed form %g, program %g", d, s.Kind, o.Volume, want)
			}
		}
	}
}

func TestChiSquareSurvival(t *testing.T) {
	for _, c := range []struct {
		stat float64
		dof  int
		want float64
	}{{3.841459, 1, 0.05}, {18.307038, 10, 0.05}, {6.634897, 1, 0.01}, {0.1, 3, 0.991837}} {
		if got := oracle.ChiSquareSurvival(c.stat, c.dof); !near(got, c.want, 1e-4) {
			t.Errorf("P(X²_%d >= %g) = %g, want %g", c.dof, c.stat, got, c.want)
		}
	}
}

func TestToleranceChiSquare(t *testing.T) {
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	if stat, p := oracle.ToleranceChiSquare([]int64{110, 90, 100, 100}, probs, 0.25); stat != 0 || p != 1 {
		t.Errorf("deviations within ε: stat %g p %g, want 0 and 1", stat, p)
	}
	if _, p := oracle.ToleranceChiSquare([]int64{400, 0, 0, 0}, probs, 0.25); p > 1e-6 {
		t.Errorf("all mass in one cell passed with p %g", p)
	}
}

func TestBinomialLowerBound(t *testing.T) {
	// Brute force: smallest k with P(X < k) > alpha is one past the bound.
	n, p, alpha := 20, 0.9, 0.01
	k := oracle.BinomialLowerBound(n, p, alpha)
	cdf := func(k int) float64 { // P(X < k)
		s := 0.0
		for i := 0; i < k; i++ {
			s += math.Exp(lchoose(n, i) + float64(i)*math.Log(p) + float64(n-i)*math.Log(1-p))
		}
		return s
	}
	if cdf(k) > alpha || cdf(k+1) <= alpha {
		t.Errorf("bound %d: P(X<k)=%g, P(X<k+1)=%g, alpha %g", k, cdf(k), cdf(k+1), alpha)
	}
}

func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}
