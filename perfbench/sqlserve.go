package main

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"strings"

	cdb "repro"
	"repro/perfbench/gen"
	"repro/perfbench/oracle"
)

// sql-serve layout: one round is 182 requests. The symbolic cache holds
// sqlCache entries; the three replayed symbolic keys recur every few
// requests and stay warm, while the 20 fresh keys recur once per round
// (23+ distinct symbolic keys) and always miss, inserting and evicting.
const (
	sqlCache      = 16
	sqlFreshKeys  = 20
	sqlReplayKeys = 3
)

var sqlServe = workload{
	name:  "sql-serve",
	why:   "warm CDB-SQL statements and /v1/expr trees: parse, compile, canonicalize, cache lookup, symbolic FM and encode dominate",
	setup: setupSQLServe,
}

type sqlSystem struct {
	src     string
	c       *inproc
	db      string
	sqlPath string
	rels    []gen.Item
	prisms  []*gen.Prism
	mover   *gen.Mover
	tallies map[string]*cellTally
	volumes map[string]volumeAnswer
	keys    map[string][]string // logical query -> canonical keys reported by its spellings
	points  map[string][]uint64 // logical draw -> digests of its points per spelling
	reqs    []request
	stmts   []string // every SQL statement of a round, for the compile probe
}

func setupSQLServe(ctx context.Context, seed uint64, k int, env *environment) (system, error) {
	prog, rels, prisms, mover := gen.SQLServe(seed)
	s := &sqlSystem{
		src: prog.Text(), c: newInproc(env, sqlCache), rels: rels, prisms: prisms, mover: mover,
		tallies: map[string]*cellTally{}, volumes: map[string]volumeAnswer{},
		keys: map[string][]string{}, points: map[string][]uint64{},
	}
	// The database name enters every cache key, and so every
	// preparation seed: each set-up's generators are its own.
	id, err := s.c.register(ctx, fmt.Sprintf("sqlserve-%d", k), prog.Text())
	if err != nil {
		s.c.close()
		return nil, err
	}
	s.db, s.sqlPath = id, "/v1/sql?database="+url.QueryEscape(id)
	s.reqs = s.buildRound(seed, k)
	// Warm set: one pass over the round prepares every sampler, warms
	// the replayed symbolic keys and the time slices. Outputs are not
	// checked here (check does that after set-up).
	for _, rq := range s.reqs {
		if _, err := rq.call(ctx, false); err != nil {
			s.c.close()
			return nil, fmt.Errorf("warm %s: %w", rq.class, err)
		}
	}
	return s, nil
}

func (s *sqlSystem) tally(name string, n *gen.Node) *cellTally {
	t, ok := s.tallies[name]
	if !ok {
		t = &cellTally{item: gen.Item{Name: name, Node: n, Oracle: mustExact(n)}}
		t.counts = make([]int64, len(t.item.Oracle.Probs))
		s.tallies[name] = t
	}
	return t
}

// drawTarget is one logical draw: a relation, optionally cut by x1 <= cut.
type drawTarget struct {
	it  gen.Item
	cut float64 // 0: no cut
}

func (d drawTarget) node() *gen.Node {
	if d.cut == 0 {
		return d.it.Node
	}
	// Only boxes are cut; the cut box is a box again.
	s := *d.it.Node.S
	s.Hi = append([]float64(nil), s.Hi...)
	s.Hi[0] = d.cut
	return gen.Rel(gen.NewBox(s.Name, s.Lo, s.Hi))
}

func (d drawTarget) sql() string {
	q := "SELECT * FROM " + d.it.Target
	if d.cut != 0 {
		q += fmt.Sprintf(" WHERE x1 <= %.6f", d.cut)
	}
	return q
}

func (d drawTarget) json() map[string]any {
	rel := map[string]any{"op": "rel", "name": d.it.Target}
	if d.cut == 0 {
		return rel
	}
	coef := make([]float64, d.it.Node.Dim())
	coef[0] = 1
	return map[string]any{"op": "where", "args": []any{rel}, "atoms": []any{map[string]any{"coef": coef, "b": d.cut}}}
}

// buildRound lays out set-up k's round; each set-up draws its own
// request seeds (see warmDrawSystem.buildRound).
func (s *sqlSystem) buildRound(seed uint64, k int) []request {
	r := gen.New(seed, fmt.Sprintf("sql-serve/order/%d", k))
	var targets []drawTarget
	for _, it := range s.rels {
		targets = append(targets, drawTarget{it: it})
		if it.Node.Op == "rel" && it.Node.S.Kind == gen.KindBox {
			targets = append(targets, drawTarget{it: it, cut: gen.Q(it.Node.S.Lo[0] + 0.12)})
		}
	}
	var reqs []request
	add := func(n int, f func(k int) request) {
		for k := 0; k < n; k++ {
			reqs = append(reqs, f(k))
		}
	}
	// Draws of 4–8 points: 30 in SQL only, and 20 spelled in both SQL
	// and JSON with one seed, which must report one canonical key and
	// return the same points.
	add(30, func(k int) request {
		t := targets[k%len(targets)]
		return s.sqlSample(t, 4+k%5, uint64(1+r.IntN(1<<30)))
	})
	for k := 0; k < 20; k++ {
		t := targets[(k+3)%len(targets)]
		n, sd := 4+k%5, uint64(1+r.IntN(1<<30))
		reqs = append(reqs, s.sqlSample(t, n, sd), s.jsonSample(t, n, sd))
	}
	add(20, func(k int) request { return s.sqlVolume(s.rels[k%len(s.rels)]) })
	for k := 0; k < 12; k++ {
		a, b := s.rels[k%len(s.rels)], s.rels[(k+1+k/len(s.rels))%len(s.rels)]
		if a.Node.Dim() != b.Node.Dim() {
			b = a
		}
		reqs = append(reqs, s.explainSQL(a, b), s.explainJSON(a, b))
	}
	add(30, func(k int) request { return s.symbolic("fm.replay", s.prisms[k%2], k%sqlReplayKeys) })
	add(sqlFreshKeys, func(k int) request { return s.symbolic("fm.fresh", s.prisms[k%2], sqlReplayKeys+k) })
	add(18, func(k int) request { return s.timeslice(k%2, r.Uint64()) })
	r.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	return reqs
}

func (s *sqlSystem) sqlSample(t drawTarget, n int, seed uint64) request {
	stmt := fmt.Sprintf("%s SAMPLE %d SEED %d", t.sql(), n, seed)
	s.stmts = append(s.stmts, stmt)
	tl := s.tally(t.sql(), t.node())
	pair := fmt.Sprintf("%s#%d#%d", t.sql(), n, seed)
	return httpRequest(s.c, "sql.sample", s.sqlPath, []byte(stmt), func(rp *reply) error {
		if len(rp.Points) != n {
			return fmt.Errorf("%s: %d points, want %d", stmt, len(rp.Points), n)
		}
		s.keys[t.sql()] = append(s.keys[t.sql()], rp.CanonicalKey)
		s.points[pair] = append(s.points[pair], digestPoints(rp.Points))
		return addPoints(tl, rp.Points)
	})
}

func (s *sqlSystem) jsonSample(t drawTarget, n int, seed uint64) request {
	body := mustJSON(map[string]any{"database": s.db, "expr": t.json(), "mode": "sample", "n": n, "seed": seed})
	tl := s.tally(t.sql(), t.node())
	pair := fmt.Sprintf("%s#%d#%d", t.sql(), n, seed)
	return httpRequest(s.c, "json.sample", "/v1/expr", body, func(rp *reply) error {
		if len(rp.Points) != n {
			return fmt.Errorf("%s: %d points, want %d", body, len(rp.Points), n)
		}
		s.keys[t.sql()] = append(s.keys[t.sql()], rp.CanonicalKey)
		s.points[pair] = append(s.points[pair], digestPoints(rp.Points))
		// The same points as the SQL twin's: checked, not counted again.
		return inRows(tl.item, rp.Points)
	})
}

func (s *sqlSystem) sqlVolume(it gen.Item) request {
	stmt := "SELECT VOLUME(*) FROM " + it.Target
	s.stmts = append(s.stmts, stmt)
	return httpRequest(s.c, "sql.volume", s.sqlPath, []byte(stmt), func(rp *reply) error {
		if rp.Volume == nil {
			return fmt.Errorf("%s: no volume", stmt)
		}
		s.volumes[stmt] = volumeAnswer{what: stmt, got: *rp.Volume, want: it.Oracle.Volume}
		return nil
	})
}

func pairSQL(a, b gen.Item) string {
	return fmt.Sprintf("SELECT * FROM %s UNION SELECT * FROM %s", a.Target, b.Target)
}

func (s *sqlSystem) explainSQL(a, b gen.Item) request {
	q := pairSQL(a, b)
	s.stmts = append(s.stmts, "EXPLAIN "+q)
	return httpRequest(s.c, "sql.explain", s.sqlPath, []byte("EXPLAIN "+q), func(rp *reply) error {
		s.keys[q] = append(s.keys[q], rp.CanonicalKey)
		return nil
	})
}

func (s *sqlSystem) explainJSON(a, b gen.Item) request {
	q := pairSQL(a, b)
	tree := map[string]any{"op": "union", "args": []any{
		map[string]any{"op": "rel", "name": a.Target}, map[string]any{"op": "rel", "name": b.Target}}}
	body := mustJSON(map[string]any{"database": s.db, "expr": tree, "mode": "explain"})
	return httpRequest(s.c, "json.explain", "/v1/expr", body, func(rp *reply) error {
		s.keys[q] = append(s.keys[q], rp.CanonicalKey)
		return nil
	})
}

// symbolic evaluates the projection of prism ∩ {x1 <= cut_k} onto x
// by exact quantifier elimination. Its volume is the simplex slice
// s^d/d! · (1 - (1 - t)^d), t = (cut - lo_1)/s.
func (s *sqlSystem) symbolic(class string, p *gen.Prism, k int) request {
	sh := p.Shadow
	d := sh.Dim
	t := 0.2 + 0.7*float64(k)/float64(sqlReplayKeys+sqlFreshKeys)
	cut := gen.Q(sh.Lo[0] + t*sh.S)
	t = (cut - sh.Lo[0]) / sh.S
	want := oracle.SimplexVolume(d, sh.S) * (1 - math.Pow(1-t, float64(d)))
	coef := make([]float64, d+1)
	coef[0] = 1
	tree := map[string]any{"op": "project", "vars": gen.Vars(d), "args": []any{
		map[string]any{"op": "where", "atoms": []any{map[string]any{"coef": coef, "b": cut}},
			"args": []any{map[string]any{"op": "rel", "name": p.Shape.Name}}}}}
	body := mustJSON(map[string]any{"database": s.db, "expr": tree, "mode": "symbolic"})
	return httpRequest(s.c, class, "/v1/expr", body, func(rp *reply) error {
		if rp.Volume == nil {
			return fmt.Errorf("symbolic %s x1<=%g: no exact volume", p.Shape.Name, cut)
		}
		if math.Abs(*rp.Volume-want) > 1e-9*want {
			return fmt.Errorf("symbolic %s x1<=%g: volume %.12g, closed form %.12g", p.Shape.Name, cut, *rp.Volume, want)
		}
		return nil
	})
}

// timeslice draws from the mover's slice at one of two probe times.
func (s *sqlSystem) timeslice(k int, seed uint64) request {
	t0 := []float64{0.25, 0.75}[k]
	box := s.mover.SliceBox(t0)
	tl := s.tally(fmt.Sprintf("slice@%g", t0), gen.Rel(box))
	tree := map[string]any{"op": "timeslice", "t": t0, "args": []any{map[string]any{"op": "rel", "name": s.mover.Shape.Name}}}
	body := mustJSON(map[string]any{"database": s.db, "expr": tree, "mode": "sample", "n": 4, "seed": seed})
	return httpRequest(s.c, "timeslice", "/v1/expr", body, func(rp *reply) error {
		if len(rp.Points) != 4 {
			return fmt.Errorf("timeslice: %d points", len(rp.Points))
		}
		return addPoints(tl, rp.Points)
	})
}

func (s *sqlSystem) round() []request { return s.reqs }
func (s *sqlSystem) close()           { s.c.close() }

func (s *sqlSystem) outcome() outcome {
	var errs []string
	for q, ks := range s.keys {
		for _, k := range ks {
			if k == "" || k != ks[0] {
				errs = append(errs, fmt.Sprintf("%s: canonical keys differ across spellings: %v", q, ks))
				break
			}
		}
	}
	for q, ds := range s.points {
		for _, d := range ds {
			if d != ds[0] {
				errs = append(errs, fmt.Sprintf("%s: SQL and JSON draws with one seed returned different points", q))
				break
			}
		}
	}
	var ts []*cellTally
	for _, t := range s.tallies {
		ts = append(ts, t)
	}
	o := outcome{cells: cellOutcome(ts), volumes: volumeList(s.volumes)}
	if len(errs) > 0 {
		o.err = fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return o
}

func (s *sqlSystem) layers() map[string]float64 { return serverLayers(s.c) }
func (s *sqlSystem) costs() []cdb.ObservedCost  { return s.c.costs() }

func (s *sqlSystem) inputs() (string, []*gen.Shape, []string) {
	var shapes []*gen.Shape
	for _, it := range s.rels {
		shapes = append(shapes, it.Node.Leaves()...)
	}
	for _, p := range s.prisms {
		shapes = append(shapes, p.Shape)
	}
	shapes = append(shapes, s.mover.Shape)
	return s.src, shapes, s.stmts
}
