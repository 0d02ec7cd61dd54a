package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// phase is the record of one timed phase: whole rounds of the workload,
// one request at a time, until the duration has passed.
type phase struct {
	attempted, failed int
	points            int64
	wall              time.Duration
	// Per-round rates: the end-to-end rates are their medians, so a
	// round slowed by a noisy neighbour (CPU steal) moves them little.
	roundPoints, roundRequests, roundCPU []float64
	classes                              []string       // request classes, in first-seen order
	hists                                []*latencyHist // one per class
	mallocs, bytes                       uint64
	gcCycles                             uint32
	mismatched                           int
}

// timedPhase runs whole rounds of reqs for at least d. A request that
// errors, or whose output digest differs from the verified round's,
// counts as failed. The record it keeps while timing is a few fixed
// latency histograms and one float per round, so the heap the program's
// GC paces against is the program's own.
func timedPhase(ctx context.Context, reqs []request, checks []checked, d time.Duration) *phase {
	ph := &phase{}
	classOf := make([]int, len(reqs))
	index := map[string]int{}
	for i, rq := range reqs {
		k, ok := index[rq.class]
		if !ok {
			k = len(ph.classes)
			index[rq.class] = k
			ph.classes = append(ph.classes, rq.class)
			ph.hists = append(ph.hists, new(latencyHist))
		}
		classOf[i] = k
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < d || ph.attempted == 0 {
		r0, c0, p0 := time.Now(), cpuTime(), ph.points
		for i, rq := range reqs {
			t0 := time.Now()
			out, err := rq.call(ctx, false)
			ph.hists[classOf[i]].add(time.Since(t0))
			ph.attempted++
			switch {
			case err != nil:
				ph.failed++
			case out.digest != checks[i].digest:
				ph.failed++
				ph.mismatched++
			default:
				ph.points += int64(out.points)
			}
		}
		rw := time.Since(r0).Seconds()
		ph.roundPoints = append(ph.roundPoints, float64(ph.points-p0)/rw)
		ph.roundRequests = append(ph.roundRequests, float64(len(reqs))/rw)
		ph.roundCPU = append(ph.roundCPU, (cpuTime()-c0).Seconds()*1e3/float64(len(reqs)))
	}
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	ph.mallocs = after.Mallocs - before.Mallocs
	ph.bytes = after.TotalAlloc - before.TotalAlloc
	ph.gcCycles = after.NumGC - before.NumGC
	if ph.mismatched > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d outputs differed from the verified round\n", ph.mismatched)
	}
	return ph
}

// cpuTime is the process's user+system CPU time so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Latency histogram layout: bucket i holds latencies in
// [1 µs · (1+histWidth)^i, 1 µs · (1+histWidth)^(i+1)); the last bucket
// reaches past 160 s, the first takes everything below 1 µs.
const (
	histWidth   = 0.01
	histBuckets = 1900
)

// latencyHist is a fixed-size latency record: each log-spaced bucket's
// count and sum. It holds no pointers and does not grow, however many
// requests it records.
type latencyHist struct {
	n     int64
	count [histBuckets]int64
	sum   [histBuckets]time.Duration
}

var logHistBase = math.Log1p(histWidth)

func (h *latencyHist) add(d time.Duration) {
	i := 0
	if d > time.Microsecond {
		i = min(int(math.Log(float64(d)/float64(time.Microsecond))/logHistBase), histBuckets-1)
	}
	h.count[i]++
	h.sum[i] += d
	h.n++
}

func (h *latencyHist) merge(o *latencyHist) {
	h.n += o.n
	for i := range h.count {
		h.count[i] += o.count[i]
		h.sum[i] += o.sum[i]
	}
}

// percentile is the nearest-rank percentile in ms, read as the mean
// latency of the bucket that holds the rank: within histWidth of the
// exact value.
func (h *latencyHist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	k := max(1, min(h.n, int64(float64(h.n)*p/100+0.5)))
	var cum int64
	for i, c := range h.count {
		if cum += c; cum >= k {
			return float64(h.sum[i]) / float64(c) / 1e6
		}
	}
	return 0
}

// all merges the classes' histograms.
func (ph *phase) all() *latencyHist {
	h := new(latencyHist)
	for _, c := range ph.hists {
		h.merge(c)
	}
	return h
}

func (ph *phase) endToEnd(m map[string]metric) {
	n := float64(ph.attempted)
	all := ph.all()
	m["points_per_s"] = metric{median(ph.roundPoints), "points/s"}
	m["requests_per_s"] = metric{median(ph.roundRequests), "req/s"}
	m["latency_p50_ms"] = metric{all.percentile(50), "ms"}
	m["latency_p90_ms"] = metric{all.percentile(90), "ms"}
	m["cpu_ms_per_request"] = metric{median(ph.roundCPU), "ms"}
	m["allocs_per_request"] = metric{float64(ph.mallocs) / n, "allocs"}
	m["bytes_per_request"] = metric{float64(ph.bytes) / n, "B"}
}

// classLatency is the median latency of each class, in ms.
func (ph *phase) classLatency() map[string]float64 {
	out := map[string]float64{}
	for i, c := range ph.classes {
		out[c] = ph.hists[i].percentile(50)
	}
	return out
}

// environment is the run's environment capture.
type environment struct {
	CPU        string             `json:"cpu"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Pool       int                `json:"pool"`
	Workers    int                `json:"workers"`
	steal      uint64             // /proc/stat steal ticks at start, then the delta
	shares     map[string]float64 // request class shares of one round
}

func captureEnv() *environment {
	e := &environment{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		steal:      stealNow(),
	}
	// Every workload runs one client, so requests use one logical
	// worker; the pool is sized to the machine.
	e.Pool, e.Workers = e.NProc, 1
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealNow reads the machine's cumulative CPU steal ticks (the eighth
// value of /proc/stat's cpu line), 0 where unavailable.
func stealNow() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

// report prints the environment capture and the request classes of
// the run as one JSON line before the result line.
func (e *environment) report(workload string, ph *phase, setups []float64) {
	out := map[string]any{
		"workload":       workload,
		"env":            e,
		"steal_ticks":    e.steal,
		"class_share":    e.shares,
		"class_p50_ms":   ph.classLatency(),
		"latency_sample": ph.attempted,
		"gc_cycles":      ph.gcCycles,
		"setup_s_each":   setups,
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}
