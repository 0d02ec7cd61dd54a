// Command perfbench is the repository's benchmark: one closed-loop
// client drives one workload against the program in-process, checks
// every output against the oracle in perfbench/oracle, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output.
//
//	go run . --workload warm-draw --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	cdb "repro"
	"repro/perfbench/gen"
)

// A request is one operation of a workload round. call executes it once
// (traced asks the program for its span tree) and digests its output;
// verify checks a checked-round output against the oracle and the
// workload's accumulated tallies.
type request struct {
	class  string
	call   func(ctx context.Context, traced bool) (output, error)
	verify func(out *output) error
}

// output is what one call returned.
type output struct {
	points int
	digest uint64
	pts    []cdb.Vector // facade draws
	root   *cdb.Span    // facade span tree, traced calls only
	body   []byte       // HTTP reply
	// Set by an HTTP verify: the reply's canonical plan key, whether the
	// cache answered with a negative verdict, and whether a median_k
	// engine served it.
	key              string
	negative, median bool
}

// A system is a workload's prepared system under test.
type system interface {
	// round returns the requests of one round, in order. Every round
	// repeats them with the same seeds.
	round() []request
	// outcome judges everything the checked round accumulated.
	outcome() outcome
	// layers reads the program's own cache counters (cumulative).
	layers() map[string]float64
	// costs reads the program's per-key observed costs (cumulative).
	costs() []cdb.ObservedCost
	// inputs returns the generated program, its convex shapes and the
	// SQL statements of the workload, for the single-layer probes.
	inputs() (src string, shapes []*gen.Shape, stmts []string)
	close()
}

type workload struct {
	name string
	why  string
	// setup builds the system and prepares its whole warm working set.
	// Set-up k draws its preparation randomness apart from every other
	// k, so each set-up's generators are independent trials.
	setup func(ctx context.Context, seed uint64, k int, env *environment) (system, error)
}

var workloads = []workload{warmDraw, cacheChurn, sqlServe}

// setups is how many times a run sets the workload up. setup_s is
// their median; each set-up's checked round is one independent trial of
// every item's generators (see verdict), and the last set-up is the one
// measured.
const setups = 5

func main() {
	name := flag.String("workload", "", "workload name: warm-draw, cache-churn or sql-serve")
	seed := flag.Uint64("seed", 1, "workload seed: fixes inputs, request order and every sampling seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runWorkload(w workload, seed uint64, d time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	env := captureEnv()
	var (
		sys      system
		times    []float64
		outcomes []outcome
		checks   []checked
		warmHeap float64
	)
	correct := true
	for k := 0; k < setups; k++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		start := time.Now()
		s, err := w.setup(ctx, seed, k, env)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", k, err)
		}
		times = append(times, time.Since(start).Seconds())
		sys = s
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		warmHeap = float64(ms.HeapAlloc) / 1024
		var ok bool
		checks, ok = checkRound(ctx, sys.round())
		correct = correct && ok
		outcomes = append(outcomes, sys.outcome())
	}
	defer sys.close()
	if err := verdict(outcomes); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: verdict: %v\n", err)
		correct = false
	}
	reqs := sys.round()
	env.shares = classShares(reqs)

	res := &result{Correct: correct, Metrics: map[string]metric{}}
	if !traced {
		ph := timedPhase(ctx, reqs, checks, d)
		res.Attempted, res.Failed = ph.attempted, ph.failed
		ph.endToEnd(res.Metrics)
		res.Metrics["setup_s"] = metric{median(times), "s"}
		res.Metrics["warm_heap_kb"] = metric{warmHeap, "KB"}
		env.steal = stealNow() - env.steal
		env.report(w.name, ph, times)
		return res, nil
	}
	if err := tracedRun(ctx, w, sys, seed, reqs, checks, d, res, env); err != nil {
		return nil, err
	}
	return res, nil
}

// checked is what the checked round kept of one request's output.
type checked struct {
	digest  uint64
	bytes   int  // reply size
	rebuild bool // served by a per-call query engine
}

// checkRound runs one round with every output verified and returns
// what each request produced.
func checkRound(ctx context.Context, reqs []request) ([]checked, bool) {
	ok := true
	outs := make([]output, len(reqs))
	negative := map[string]bool{}
	for i, rq := range reqs {
		out, err := rq.call(ctx, false)
		if err == nil {
			err = rq.verify(&out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: check %s[%d]: %v\n", rq.class, i, err)
			ok = false
		}
		if out.negative {
			negative[out.key] = true
		}
		outs[i] = out
	}
	cs := make([]checked, len(reqs))
	for i, out := range outs {
		// A per-call engine serves median_k volumes and plans that need
		// projection: the prepared cache holds those only as a negative
		// verdict, which eviction may drop (the label is then "miss"),
		// so a key answered negatively anywhere in the round counts.
		cs[i] = checked{digest: out.digest, bytes: len(out.body), rebuild: out.median || (out.key != "" && negative[out.key])}
	}
	return cs, ok
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// classShares is each request class's share of one round.
func classShares(reqs []request) map[string]float64 {
	m := map[string]float64{}
	for _, r := range reqs {
		m[r.class] += 1 / float64(len(reqs))
	}
	return m
}
