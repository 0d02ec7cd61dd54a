package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	cdb "repro"
	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/polytope"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/rounding"
	sqldialect "repro/internal/sql"
	"repro/internal/walk"
	"repro/perfbench/gen"
)

// span is one node of a traced request: the benchmark's own span around
// the request, with the program's span tree (durations only) below it.
type span struct {
	name     string
	dur      time.Duration
	children []*span
}

// self is the span's duration minus what its children cover. The
// program's spans carry durations but no start times, so children are
// taken as sequential, which the program's pipeline stages are.
func (s *span) self() time.Duration {
	d := s.dur
	for _, c := range s.children {
		d -= c.dur
	}
	return max(d, 0)
}

func (s *span) walk(fn func(*span)) {
	fn(s)
	for _, c := range s.children {
		c.walk(fn)
	}
}

// engineStages are the program's engine spans: the walk's batched draws
// and symbolic elimination. Time outside them is request overhead.
var engineStages = map[string]bool{"sample.batch": true, "symbolic.eliminate": true}

func (s *span) engineTime() time.Duration {
	if engineStages[s.name] {
		return s.dur
	}
	var d time.Duration
	for _, c := range s.children {
		d += c.engineTime()
	}
	return d
}

func fromObs(o *cdb.Span) *span {
	s := &span{name: o.Name(), dur: o.Duration()}
	for _, c := range o.Children() {
		s.children = append(s.children, fromObs(c))
	}
	return s
}

func fromJSON(j *spanJSON) *span {
	s := &span{name: j.Name, dur: time.Duration(j.DurationUS * 1e3)}
	for i := range j.Children {
		s.children = append(s.children, fromJSON(&j.Children[i]))
	}
	return s
}

// spanTree is the program's span tree of a traced call, nil if it has
// none.
func spanTree(out output) *span {
	if out.root != nil {
		return fromObs(out.root)
	}
	if rp, err := decodeReply(out.body); err == nil && rp.Spans != nil {
		return fromJSON(rp.Spans)
	}
	return nil
}

// gcCounters reads the runtime's GC cycle count and GC CPU seconds.
func gcCounters() (cycles float64, cpuSec float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		cpuSec = s[1].Value.Float64()
	}
	return cycles, cpuSec
}

// tracedRun measures the per-layer metrics: an untraced phase and a
// traced phase of half the run each (their difference is the tracing
// overhead), the program's counters, and the single-layer probes on the
// workload's own inputs.
func tracedRun(ctx context.Context, w workload, sys system, seed uint64, reqs []request,
	checks []checked, d time.Duration, res *result, env *environment) error {
	costs0 := sys.costs()
	evict0 := sys.layers()["runtime.cache_evictions"]
	gc0, gcCPU0 := gcCounters()
	ph := timedPhase(ctx, reqs, checks, d/2)
	gc1, gcCPU1 := gcCounters()
	n := float64(ph.attempted)

	var (
		traced    time.Duration
		count     int
		failed    int
		outside   latencyHist
		bodyBytes int
		rebuilds  int
		rebuildT  time.Duration
		selfByKey = map[string]time.Duration{}
	)
	start := time.Now()
	for time.Since(start) < d/2 || count == 0 {
		for i, rq := range reqs {
			t0 := time.Now()
			out, err := rq.call(ctx, true)
			lat := time.Since(t0)
			count++
			if err != nil {
				failed++
				continue
			}
			traced += lat
			root := &span{name: "request", dur: lat}
			if t := spanTree(out); t != nil {
				root.children = append(root.children, t)
			}
			root.walk(func(s *span) { selfByKey[s.name] += s.self() })
			outside.add(max(lat-root.engineTime(), 0))
			bodyBytes += checks[i].bytes
			if checks[i].rebuild {
				rebuilds++
				rebuildT += lat
			}
		}
	}
	costs1 := sys.costs()
	res.Attempted = ph.attempted + count
	res.Failed = ph.failed + failed

	m := sys.layers()
	for k, v := range costLayers(diffCosts(costs1, costs0)) {
		m[k] = v
	}
	// Preparation cost is cumulative: on warm-draw every preparation
	// happens in set-up, before the phases.
	m["core.prepare_ms_per_call"] = costLayers(costs1)["core.prepare_ms_per_call"]
	m["runtime.cache_evictions_per_request"] = (m["runtime.cache_evictions"] - evict0) / float64(res.Attempted)
	delete(m, "runtime.cache_evictions")
	tc := float64(count - failed)
	// The median: on cache-churn the mean would be set by the few
	// requests that prepare (outside any engine span) or rebuild.
	m["server.self_us_per_request"] = outside.percentile(50) * 1e3
	m["server.response_bytes_per_request"] = ratio(float64(bodyBytes), tc)
	m["query.engine_rebuilds_per_request"] = ratio(float64(rebuilds), tc)
	m["query.engine_ms_per_rebuild"] = ratio(float64(rebuildT)/1e6, float64(rebuilds))
	m["gc.cycles_per_request"] = (gc1 - gc0) / n
	m["gc.cpu_ms_per_request"] = (gcCPU1 - gcCPU0) * 1e3 / n
	untracedMean := ph.wall.Seconds() / n
	tracedMean := traced.Seconds() / tc
	m["obs.trace_overhead_pct"] = (tracedMean/untracedMean - 1) * 100

	src, shapes, stmts := sys.inputs()
	pr, err := probeLayers(src, shapes, stmts, seed)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for k, v := range pr {
		m[k] = v
	}
	// Reconcile the sample stage with the unit costs: every walk step
	// (its chord and membership calls included) and one map back per
	// point.
	dc := wholeKeys(diffCosts(costs1, costs0))
	var sampleNS, steps, pts float64
	for _, c := range dc {
		sampleNS += float64(c.SampleNanos)
		steps += float64(c.WalkSteps)
		pts += float64(c.Samples)
	}
	predicted := steps*m["walk.ns_per_step"] + pts*m["linalg.invert_ns"]
	m["model.residue_pct"] = ratio(sampleNS-predicted, sampleNS) * 100

	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
	selfUS := map[string]float64{}
	for k, v := range selfByKey {
		selfUS[k] = float64(v) / 1e3 / tc
	}
	b, _ := json.Marshal(map[string]any{"workload": w.name, "env": env, "steal_ticks": stealNow() - env.steal,
		"self_us_per_request": selfUS, "traced_requests": count})
	fmt.Println(string(b))
	return nil
}

// diffCosts subtracts an earlier per-key cost table from a later one.
func diffCosts(after, before []cdb.ObservedCost) []cdb.ObservedCost {
	prev := map[string]cdb.ObservedCost{}
	for _, c := range before {
		prev[c.Key] = c
	}
	out := make([]cdb.ObservedCost, 0, len(after))
	for _, c := range after {
		p := prev[c.Key]
		c.Preps -= p.Preps
		c.PrepNanos -= p.PrepNanos
		c.Draws -= p.Draws
		c.Samples -= p.Samples
		c.SampleNanos -= p.SampleNanos
		c.QueueNanos -= p.QueueNanos
		c.Binds -= p.Binds
		c.BindNanos -= p.BindNanos
		c.WalkSteps -= p.WalkSteps
		c.WalkAccepted -= p.WalkAccepted
		c.OracleCalls -= p.OracleCalls
		c.Rounds -= p.Rounds
		c.Accepts -= p.Accepts
		c.Evals -= p.Evals
		c.ElimNanos -= p.ElimNanos
		c.AtomsIn -= p.AtomsIn
		c.AtomsOut -= p.AtomsOut
		out = append(out, c)
	}
	return out
}

// timeOp runs op n times and returns the mean time per call in ns.
func timeOp(n int, op func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeBatches is how many batches a hot-path probe times; it reports
// the median batch, so a batch hit by a noisy neighbour does not move
// it.
const probeBatches = 7

// medianOp is timeOp's median over probeBatches batches of n calls.
func medianOp(n int, op func(i int)) float64 {
	ts := make([]float64, probeBatches)
	for b := range ts {
		ts[b] = timeOp(n, op)
	}
	return median(ts)
}

// probeLayers replays single layers on the workload's own inputs: the
// SQL compiler and canonicalizer on its statements, and on each of its
// convex bodies the program's preparation steps (Chebyshev and
// enclosing-ball witnesses through the LP, rounding) followed by the
// hot-path calls of a walk on the rounded body.
func probeLayers(src string, shapes []*gen.Shape, stmts []string, seed uint64) (map[string]float64, error) {
	db, err := cdb.Parse(src)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	var compile, canon time.Duration
	calls := 0
	for rep := 0; rep < 5; rep++ {
		for _, st := range stmts {
			t0 := time.Now()
			c, err := sqldialect.Compile(db, st)
			compile += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("compile %q: %w", st, err)
			}
			plan, err := c.Node.Compile(db)
			if err != nil {
				return nil, fmt.Errorf("plan %q: %w", st, err)
			}
			t1 := time.Now()
			query.Canonicalize(plan)
			canon += time.Since(t1)
			calls++
		}
	}
	m["sql.compile_us_per_statement"] = ratio(float64(compile)/1e3, float64(calls))
	m["query.canonicalize_us_per_call"] = ratio(float64(canon)/1e3, float64(calls))

	r := rng.New(seed)
	var agg struct {
		rounding, ratio, step, stepAllocs, chord, contains, invert, sphere, solve float64
		n                                                                         int
	}
	for _, s := range shapes {
		a := make([]linalg.Vector, len(s.A))
		for i := range s.A {
			a[i] = linalg.Vector(s.A[i])
		}
		poly := polytope.New(a, s.B)
		var (
			center linalg.Vector
			innerR float64
		)
		agg.solve += timeOp(3, func(int) {
			center, innerR, err = lp.ChebyshevCenter(a, s.B)
		}) / 1e3
		if err != nil {
			return nil, fmt.Errorf("chebyshev %s: %w", s.Name, err)
		}
		obj := make([]float64, s.Dim)
		r.OnSphere(obj)
		agg.solve += timeOp(3, func(int) { lp.Solve(obj, a, s.B) }) / 1e3
		bc, outerR, err := poly.EnclosingBall()
		if err != nil {
			return nil, fmt.Errorf("enclosing ball %s: %w", s.Name, err)
		}
		outer := center.Dist(bc) + outerR
		var ro *rounding.Rounded
		t0 := time.Now()
		ro, err = rounding.Round(poly, center, innerR, outer, r.Split(), rounding.Options{Iterations: 3})
		agg.rounding += float64(time.Since(t0)) / 1e6
		if err != nil {
			return nil, fmt.Errorf("round %s: %w", s.Name, err)
		}
		agg.ratio += ro.Ratio()
		wk, err := walk.New(ro.Body, make(linalg.Vector, s.Dim), r.Split(), walk.Config{Kind: walk.HitAndRun, OuterRadius: ro.OuterRadius})
		if err != nil {
			return nil, fmt.Errorf("walk %s: %w", s.Name, err)
		}
		const steps = 4000
		wk.Run(200)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		agg.step += medianOp(steps, func(int) { wk.Step() })
		runtime.ReadMemStats(&m1)
		agg.stepAllocs += float64(m1.Mallocs-m0.Mallocs) / (probeBatches * steps)
		// Points and directions along the walk, in rounded space: the
		// chord and membership probes call the rounded body the walker
		// steps on, so each maps back through AffineMap.Invert as the
		// walk does.
		body, ok := ro.Body.(walk.ChordBody)
		if !ok {
			return nil, fmt.Errorf("rounded %s: body has no chords", s.Name)
		}
		ys := make([]linalg.Vector, 64)
		dirs := make([]linalg.Vector, 64)
		for i := range ys {
			wk.Run(4)
			ys[i] = wk.Current().Clone()
			dirs[i] = r.OnSphere(make([]float64, s.Dim))
		}
		agg.chord += medianOp(steps, func(i int) { body.Chord(ys[i%64], dirs[i%64]) })
		agg.contains += medianOp(steps, func(i int) { body.Contains(ys[i%64]) })
		agg.invert += medianOp(steps, func(i int) { ro.Map.Invert(ys[i%64]) })
		buf := make([]float64, s.Dim)
		agg.sphere += medianOp(steps, func(int) { r.OnSphere(buf) })
		agg.n++
	}
	k := float64(agg.n)
	m["rounding.ms_per_call"] = agg.rounding / k
	m["rounding.sandwich_ratio"] = agg.ratio / k
	m["walk.ns_per_step"] = agg.step / k
	m["walk.allocs_per_step"] = agg.stepAllocs / k
	m["polytope.chord_ns"] = agg.chord / k
	m["polytope.contains_ns"] = agg.contains / k
	m["linalg.invert_ns"] = agg.invert / k
	m["rng.onsphere_ns"] = agg.sphere / k
	m["lp.solve_us"] = agg.solve / (2 * k)
	return m, nil
}

// layerSpec is one per-layer metric of BENCHMARK.json.
type layerSpec struct{ name, unit string }

var perLayer = []layerSpec{
	{"server.self_us_per_request", "us"},
	{"server.response_bytes_per_request", "B"},
	{"sql.compile_us_per_statement", "us"},
	{"query.canonicalize_us_per_call", "us"},
	{"query.engine_rebuilds_per_request", "count"},
	{"query.engine_ms_per_rebuild", "ms"},
	{"runtime.cache_hit_ratio", "ratio"},
	{"runtime.cache_evictions_per_request", "count"},
	{"runtime.symbolic_hit_ratio", "ratio"},
	{"runtime.queue_us_per_draw", "us"},
	{"runtime.bind_us_per_draw", "us"},
	{"runtime.sample_ms_per_draw", "ms"},
	{"core.prepare_ms_per_call", "ms"},
	{"core.rejection_rounds_per_point", "count"},
	{"core.accept_ratio", "ratio"},
	{"rounding.ms_per_call", "ms"},
	{"rounding.sandwich_ratio", "ratio"},
	{"walk.steps_per_point", "count"},
	{"walk.accept_ratio", "ratio"},
	{"walk.ns_per_step", "ns"},
	{"walk.allocs_per_step", "allocs"},
	{"polytope.chord_ns", "ns"},
	{"polytope.contains_ns", "ns"},
	{"linalg.invert_ns", "ns"},
	{"rng.onsphere_ns", "ns"},
	{"lp.oracle_calls_per_point", "count"},
	{"lp.solve_us", "us"},
	{"constraint.eliminate_us_per_eval", "us"},
	{"constraint.atoms_out_per_in", "ratio"},
	{"gc.cycles_per_request", "count"},
	{"gc.cpu_ms_per_request", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"model.residue_pct", "%"},
}
