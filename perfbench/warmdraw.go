package main

import (
	"context"
	"fmt"
	"math"

	cdb "repro"
	"repro/perfbench/gen"
)

// drawN is the warm-draw request size.
const drawN = 64

var warmDraw = workload{
	name:  "warm-draw",
	why:   "warm 64-point draws through the cdb facade over a cached d=2-6 working set: walk, chord and bind do the work",
	setup: setupWarmDraw,
}

func digestPoints[P ~[]float64](pts []P) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range pts {
		for _, v := range p {
			h ^= math.Float64bits(v)
			h *= 1099511628211
		}
	}
	return h
}

type warmDrawSystem struct {
	src     string
	db      *cdb.DB
	items   []gen.Item
	exprs   []*cdb.Expr
	tallies []*cellTally
	reqs    []request
}

func setupWarmDraw(ctx context.Context, seed uint64, k int, env *environment) (system, error) {
	prog, items := gen.WarmDraw(seed)
	db, err := cdb.Open(prog.Text(),
		cdb.WithPoolSize(env.Pool), cdb.WithWorkers(env.Workers),
		cdb.WithCacheSize(4*len(items)), cdb.WithPrepSeed(gen.New(seed, fmt.Sprintf("warm-draw/prep/%d", k)).Uint64()))
	if err != nil {
		return nil, err
	}
	s := &warmDrawSystem{src: prog.Text(), db: db, items: items}
	for _, it := range items {
		e := buildExpr(db, it.Node)
		if _, err := e.Sampler(ctx); err != nil {
			db.Close()
			return nil, fmt.Errorf("prepare %s: %w", it.Name, err)
		}
		s.exprs = append(s.exprs, e)
		s.tallies = append(s.tallies, &cellTally{item: it, counts: make([]int64, len(it.Oracle.Probs))})
	}
	s.reqs = s.buildRound(seed, k)
	return s, nil
}

// buildExpr spells a generated expression with the facade combinators.
func buildExpr(db *cdb.DB, n *gen.Node) *cdb.Expr {
	switch n.Op {
	case "rel":
		return db.Rel(n.S.Name)
	case "union":
		return buildExpr(db, n.L).Union(buildExpr(db, n.R))
	case "intersect":
		return buildExpr(db, n.L).Intersect(buildExpr(db, n.R))
	default:
		return buildExpr(db, n.L).Minus(buildExpr(db, n.R))
	}
}

// buildRound lays out set-up k's round: each item appears Weight times,
// in a seeded order, each slot with its own request seed. Each set-up
// draws its own seeds, so its checked round is an independent trial
// even for generators whose preparation is exact.
func (s *warmDrawSystem) buildRound(seed uint64, k int) []request {
	var slots []int
	for i, it := range s.items {
		for k := 0; k < it.Weight; k++ {
			slots = append(slots, i)
		}
	}
	r := gen.New(seed, fmt.Sprintf("warm-draw/order/%d", k))
	r.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	reqs := make([]request, len(slots))
	for k, i := range slots {
		e, t := s.exprs[i], s.tallies[i]
		rs := r.Uint64()
		reqs[k] = request{
			class: s.items[i].Name,
			call: func(ctx context.Context, traced bool) (output, error) {
				var root *cdb.Span
				if traced {
					ctx, root = cdb.StartTrace(ctx, "draw")
				}
				pts, err := e.SampleNSeeded(ctx, drawN, rs)
				if root != nil {
					root.End()
				}
				return output{points: len(pts), digest: digestPoints(pts), pts: pts, root: root}, err
			},
			verify: func(out *output) error {
				if out.points != drawN {
					return fmt.Errorf("%d points, want %d", out.points, drawN)
				}
				return addPoints(t, out.pts)
			},
		}
	}
	return reqs
}

func (s *warmDrawSystem) round() []request { return s.reqs }
func (s *warmDrawSystem) outcome() outcome { return outcome{cells: cellOutcome(s.tallies)} }
func (s *warmDrawSystem) close()           { s.db.Close() }

func (s *warmDrawSystem) costs() []cdb.ObservedCost { return s.db.ObservedCosts() }

func (s *warmDrawSystem) inputs() (string, []*gen.Shape, []string) {
	var shapes []*gen.Shape
	var stmts []string
	for _, it := range s.items {
		shapes = append(shapes, it.Node.Leaves()...)
		stmts = append(stmts, it.Node.SQL())
	}
	return s.src, shapes, stmts
}

func (s *warmDrawSystem) layers() map[string]float64 {
	st := s.db.CacheStats()
	m := map[string]float64{}
	m["runtime.cache_hit_ratio"] = ratio(float64(st.Plan.Hits), float64(st.Plan.Hits+st.Plan.Misses))
	m["runtime.symbolic_hit_ratio"] = ratio(float64(st.Symbolic.Hits), float64(st.Symbolic.Hits+st.Symbolic.Misses))
	m["runtime.cache_evictions"] = float64(st.Evictions)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
