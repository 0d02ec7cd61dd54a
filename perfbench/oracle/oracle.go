// Package oracle computes the benchmark's reference answers apart from
// the program under test: exact volumes and cell masses of the
// generated families, membership from the generated rows, and the
// binomial and chi-square verdicts that turn an (ε, δ)-generator's
// promise into a pass/fail with a stated false-failure rate. It imports
// nothing from the program.
package oracle

import (
	"math"
	"sort"
)

// Box is an axis-aligned box [Lo, Hi].
type Box struct{ Lo, Hi []float64 }

// GridVolume is the coordinate-compressed grid over a family of boxes:
// the breakpoints of every box (and of the extra cuts) split each axis
// into intervals, every grid cell lies wholly inside or outside each
// box, and in(center) decides membership of a whole cell. It returns
// the exact volume of {x : in(x)} and, for each cut cell of the
// partition given by cuts (cell index = Σ_k bit_k 2^k, bit_k = x[k] >=
// cuts[k]), the exact volume in that cell.
func GridVolume(boxes []Box, cuts []float64, in func(x []float64) bool) (total float64, cells []float64) {
	total, cells, _ = gridVolume(boxes, cuts, in)
	return total, cells
}

// GridCentroid returns the exact centroid of {x : in(x)} over the
// compressed grid of boxes.
func GridCentroid(boxes []Box, in func(x []float64) bool) []float64 {
	_, _, c := gridVolume(boxes, nil, in)
	return c
}

func gridVolume(boxes []Box, cuts []float64, in func(x []float64) bool) (total float64, cells, centroid []float64) {
	d := len(boxes[0].Lo)
	axes := make([][]float64, d)
	for k := 0; k < d; k++ {
		var xs []float64
		for _, b := range boxes {
			xs = append(xs, b.Lo[k], b.Hi[k])
		}
		if k < len(cuts) {
			xs = append(xs, cuts[k])
		}
		sort.Float64s(xs)
		axes[k] = dedup(xs)
	}
	cells = make([]float64, 1<<len(cuts))
	centroid = make([]float64, d)
	idx := make([]int, d)
	center := make([]float64, d)
	for {
		vol := 1.0
		for k := 0; k < d; k++ {
			lo, hi := axes[k][idx[k]], axes[k][idx[k]+1]
			center[k] = (lo + hi) / 2
			vol *= hi - lo
		}
		if vol > 0 && in(center) {
			total += vol
			for k := range centroid {
				centroid[k] += vol * center[k]
			}
			c := 0
			for k, cut := range cuts {
				if center[k] >= cut {
					c |= 1 << k
				}
			}
			cells[c] += vol
		}
		k := 0
		for ; k < d; k++ {
			idx[k]++
			if idx[k] < len(axes[k])-1 {
				break
			}
			idx[k] = 0
		}
		if k == d {
			for i := range centroid {
				centroid[i] /= total
			}
			return total, cells, centroid
		}
	}
}

func dedup(xs []float64) []float64 {
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// SimplexVolume is the volume s^d/d! of the corner simplex
// {x >= lo, Σ(x - lo) <= s}.
func SimplexVolume(d int, s float64) float64 {
	v := 1.0
	for i := 1; i <= d; i++ {
		v *= s / float64(i)
	}
	return v
}

// SimplexCut returns the fraction c of the simplex's edge such that
// the slice {x_1 - lo_1 <= c·s} holds mass q of the simplex: the mass
// of that slice is 1 - (1 - c)^d.
func SimplexCut(d int, q float64) float64 {
	return 1 - math.Pow(1-q, 1/float64(d))
}

// Det returns the determinant of a square matrix by Gaussian
// elimination with partial pivoting.
func Det(m [][]float64) float64 {
	n := len(m)
	a := make([][]float64, n)
	for i := range m {
		a[i] = append([]float64(nil), m[i]...)
	}
	det := 1.0
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		if a[p][c] == 0 {
			return 0
		}
		if p != c {
			a[p], a[c] = a[c], a[p]
			det = -det
		}
		det *= a[c][c]
		for r := c + 1; r < n; r++ {
			f := a[r][c] / a[c][c]
			for k := c; k < n; k++ {
				a[r][k] -= f * a[c][k]
			}
		}
	}
	return det
}

// SlabVolume is the volume of {x : lo_i <= W_i x <= hi_i} for a
// square non-singular W: Π(hi_i - lo_i) / |det W|.
func SlabVolume(w [][]float64, lo, hi []float64) float64 {
	v := 1 / math.Abs(Det(w))
	for i := range lo {
		v *= hi[i] - lo[i]
	}
	return v
}

// lnGamma is math.Lgamma without the sign.
func lnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// ChiSquareSurvival returns P(X >= stat) for X ~ chi-square(dof): the
// regularized upper incomplete gamma Q(dof/2, stat/2), by series below
// a+1 and by Lentz's continued fraction above.
func ChiSquareSurvival(stat float64, dof int) float64 {
	if stat <= 0 {
		return 1
	}
	a, x := float64(dof)/2, stat/2
	if x < a+1 {
		sum, term := 1/a, 1/a
		for n := 1; n < 1000; n++ {
			term *= x / (a + float64(n))
			sum += term
			if term < sum*1e-15 {
				break
			}
		}
		return 1 - sum*math.Exp(-x+a*math.Log(x)-lnGamma(a))
	}
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 1000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lnGamma(a)) * h
}

// ToleranceChiSquare tests observed cell counts against exact cell
// probabilities under the (ε)-closeness an (ε, δ)-generator promises
// (Definition 2.2: every cell's probability within a factor 1 ± ε of
// its exact mass). Each cell's deviation is first shrunk by the
// tolerated ε·n·p; the shrunk deviations form the usual Pearson
// statistic, which under the promise is stochastically below a
// chi-square with cells-1 degrees of freedom. It returns that
// statistic and its p-value.
func ToleranceChiSquare(counts []int64, probs []float64, eps float64) (stat, p float64) {
	var n int64
	for _, c := range counts {
		n += c
	}
	used := 0
	for i, c := range counts {
		e := float64(n) * probs[i]
		if e <= 0 {
			continue
		}
		used++
		dev := math.Max(0, math.Abs(float64(c)-e)-eps*e)
		stat += dev * dev / e
	}
	if used < 2 {
		return 0, 1
	}
	return stat, ChiSquareSurvival(stat, used-1)
}

// BinomialLowerBound returns the smallest k such that a Binomial(n, p)
// variable falls below k with probability at most alpha: a verdict
// "at least k of n trials succeeded" fails falsely with probability
// at most alpha when each trial succeeds with probability >= p.
func BinomialLowerBound(n int, p, alpha float64) int {
	if p >= 1 {
		return n
	}
	cdf := 0.0 // P(X <= k-1)
	for k := 0; k <= n; k++ {
		pk := math.Exp(lnGamma(float64(n)+1) - lnGamma(float64(k)+1) - lnGamma(float64(n-k)+1) +
			float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
		if cdf+pk > alpha {
			return k
		}
		cdf += pk
	}
	return n
}

// WithinRel reports whether got lies within a factor (1 ± eps) of want.
func WithinRel(got, want, eps float64) bool {
	return got >= (1-eps)*want && got <= (1+eps)*want
}
