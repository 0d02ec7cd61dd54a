package main

import (
	"context"
	"fmt"
	"net/url"
	"strings"

	cdb "repro"
	"repro/perfbench/gen"
	"repro/perfbench/oracle"
)

// Cache-churn layout. The prepared cache holds churnCache entries; the
// eight hot relations are each visited once per block of 16 requests,
// so at most 2 blocks (8 hot + 8 cold + 2 projection keys) separate two
// visits and they always hit; the 36 cold relations come back only once
// per round (144 requests, 44+ distinct keys) and always miss.
const (
	churnCache  = 24
	churnBlocks = 9
	churnN      = 4
	churnMedian = 3
)

var cacheChurn = workload{
	name:  "cache-churn",
	why:   "small /v1/sample and /v1/volume requests over a working set larger than the prepared cache, plus projections and median_k volumes",
	setup: setupCacheChurn,
}

type churnSystem struct {
	src     string
	c       *inproc
	db      string
	hot     []gen.Item
	cold    []gen.Item
	prism   *gen.Prism
	tallies map[string]*cellTally
	volumes map[string]volumeAnswer // keyed by request body: identical requests answer identically
	reqs    []request
}

func setupCacheChurn(ctx context.Context, seed uint64, k int, env *environment) (system, error) {
	prog, hot, cold, prism := gen.CacheChurn(seed)
	s := &churnSystem{
		src: prog.Text(), c: newInproc(env, churnCache), hot: hot, cold: cold, prism: prism,
		tallies: map[string]*cellTally{}, volumes: map[string]volumeAnswer{},
	}
	// The database name enters every cache key, and so every
	// preparation seed: each set-up's generators are its own.
	id, err := s.c.register(ctx, fmt.Sprintf("churn-%d", k), prog.Text())
	if err != nil {
		s.c.close()
		return nil, err
	}
	s.db = id
	// The warm working set is the hot relations; cold ones are meant to
	// miss.
	for _, it := range hot {
		if _, err := s.c.post(ctx, "/v1/volume", mustJSON(map[string]any{"database": id, "relation": it.Target})); err != nil {
			s.c.close()
			return nil, fmt.Errorf("prepare %s: %w", it.Target, err)
		}
	}
	s.reqs = s.buildRound(seed, k)
	return s, nil
}

func (s *churnSystem) tally(it gen.Item) *cellTally {
	t, ok := s.tallies[it.Target]
	if !ok {
		t = &cellTally{item: it, counts: make([]int64, len(it.Oracle.Probs))}
		s.tallies[it.Target] = t
	}
	return t
}

// buildRound lays out set-up k's round; each set-up draws its own
// request seeds (see warmDrawSystem.buildRound).
func (s *churnSystem) buildRound(seed uint64, k int) []request {
	r := gen.New(seed, fmt.Sprintf("cache-churn/order/%d", k))
	specials := []string{"proj.sample", "proj.sample", "median_k", "proj.sample", "proj.volume", "proj.sample", "median_k", "proj.sample", "proj.volume"}
	var reqs []request
	for blk := 0; blk < churnBlocks; blk++ {
		var block []request
		for k, it := range s.hot {
			if (k+8-3*blk%8)%8 < 3 {
				block = append(block, s.volume("hit.volume", it, r.Uint64()))
			} else {
				block = append(block, s.sample("hit.sample", it, r.Uint64()))
			}
		}
		for k := 0; k < 3; k++ {
			block = append(block, s.sample("hit.sample", s.hot[r.IntN(len(s.hot))], r.Uint64()))
		}
		for k := 0; k < 4; k++ {
			it := s.cold[4*blk+k]
			if (k+blk)%2 == 0 {
				block = append(block, s.sample("miss.sample", it, r.Uint64()))
			} else {
				block = append(block, s.volume("miss.volume", it, r.Uint64()))
			}
		}
		switch sp := specials[blk]; sp {
		case "proj.sample":
			block = append(block, s.projSample(r.Uint64()))
		case "proj.volume":
			block = append(block, s.projVolume())
		default:
			block = append(block, s.median(s.hot[blk%len(s.hot)], r.Uint64()))
		}
		r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		reqs = append(reqs, block...)
	}
	return reqs
}

func (s *churnSystem) sample(class string, it gen.Item, seed uint64) request {
	t := s.tally(it)
	body := mustJSON(map[string]any{"database": s.db, "relation": it.Target, "n": churnN, "seed": seed, "workers": 1})
	return httpRequest(s.c, class, "/v1/sample", body, func(rp *reply) error {
		if len(rp.Points) != churnN {
			return fmt.Errorf("%s: %d points, want %d", it.Target, len(rp.Points), churnN)
		}
		return addPoints(t, rp.Points)
	})
}

func (s *churnSystem) volume(class string, it gen.Item, seed uint64) request {
	body := mustJSON(map[string]any{"database": s.db, "relation": it.Target, "seed": seed})
	return httpRequest(s.c, class, "/v1/volume", body, func(rp *reply) error {
		return s.recordVolume(it.Target, rp, it.Oracle.Volume)
	})
}

func (s *churnSystem) median(it gen.Item, seed uint64) request {
	body := mustJSON(map[string]any{"database": s.db, "relation": it.Target, "seed": seed, "median_k": churnMedian})
	return httpRequest(s.c, "median_k", "/v1/volume", body, func(rp *reply) error {
		return s.recordVolume(string(body), rp, it.Oracle.Volume)
	})
}

func (s *churnSystem) recordVolume(key string, rp *reply, want float64) error {
	if rp.Volume == nil {
		return fmt.Errorf("%s: no volume in reply", key)
	}
	s.volumes[key] = volumeAnswer{what: key, got: *rp.Volume, want: want}
	return nil
}

// projection statements: EXISTS (z) over the sheared prism, whose
// shadow is the simplex.
func (s *churnSystem) projStatement(tail string) string {
	return fmt.Sprintf("EXISTS (z) SELECT * FROM %s%s", s.prism.Shape.Name, tail)
}

func (s *churnSystem) projSample(seed uint64) request {
	sh := s.prism.Shadow
	t := s.tally(gen.Item{Name: "proj.shadow", Target: "proj.shadow", Node: gen.Rel(sh), Oracle: mustExact(gen.Rel(sh))})
	stmt := s.projStatement(fmt.Sprintf(" SAMPLE %d SEED %d", churnN, seed))
	return httpRequest(s.c, "proj.sample", "/v1/sql?database="+url.QueryEscape(s.db), []byte(stmt), func(rp *reply) error {
		if len(rp.Points) != churnN {
			return fmt.Errorf("projection: %d points, want %d", len(rp.Points), churnN)
		}
		return addPoints(t, rp.Points)
	})
}

func (s *churnSystem) projVolume() request {
	stmt := "SELECT VOLUME(*) FROM (" + s.projStatement("") + ")"
	want := oracle.SimplexVolume(s.prism.Shadow.Dim, s.prism.Shadow.S)
	return httpRequest(s.c, "proj.volume", "/v1/sql?database="+url.QueryEscape(s.db), []byte(stmt), func(rp *reply) error {
		return s.recordVolume(stmt, rp, want)
	})
}

func mustExact(n *gen.Node) *gen.Oracle {
	o, err := n.Exact()
	if err != nil {
		panic(err)
	}
	return o
}

func (s *churnSystem) round() []request { return s.reqs }
func (s *churnSystem) close()           { s.c.close() }

func (s *churnSystem) outcome() outcome {
	// Cell tests need points: the hot relations and the shadow get
	// dozens per round, a cold relation four.
	var ts []*cellTally
	for _, t := range s.tallies {
		if !strings.HasPrefix(t.item.Name, "cold.") {
			ts = append(ts, t)
		}
	}
	return outcome{cells: cellOutcome(ts), volumes: volumeList(s.volumes)}
}

func (s *churnSystem) layers() map[string]float64 { return serverLayers(s.c) }
func (s *churnSystem) costs() []cdb.ObservedCost  { return s.c.costs() }

func (s *churnSystem) inputs() (string, []*gen.Shape, []string) {
	var shapes []*gen.Shape
	var stmts []string
	for _, it := range append(append([]gen.Item(nil), s.hot...), s.cold...) {
		shapes = append(shapes, it.Node.Leaves()...)
		stmts = append(stmts, "SELECT * FROM "+it.Target)
	}
	shapes = append(shapes, s.prism.Shape)
	stmts = append(stmts, s.projStatement(""), "SELECT VOLUME(*) FROM ("+s.projStatement("")+")")
	return s.src, shapes, stmts
}

// serverLayers reads the counter metrics of an in-process server.
func serverLayers(c *inproc) map[string]float64 {
	m := map[string]float64{}
	hits := c.metric(`cdbserve_cache_events_total{kind="plan",outcome="hit"}`)
	misses := c.metric(`cdbserve_cache_events_total{kind="plan",outcome="miss"}`)
	m["runtime.cache_hit_ratio"] = ratio(hits, hits+misses)
	shits := c.metric(`cdbserve_cache_events_total{kind="symbolic",outcome="hit"}`)
	smiss := c.metric(`cdbserve_cache_events_total{kind="symbolic",outcome="miss"}`)
	m["runtime.symbolic_hit_ratio"] = ratio(shits, shits+smiss)
	m["runtime.cache_evictions"] = c.metric("cdbserve_sampler_cache_evictions_total")
	return m
}
