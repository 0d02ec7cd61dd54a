package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/perfbench/gen"
	"repro/perfbench/oracle"
)

// Verdict parameters. The program runs under cdb.DefaultOptions: each
// prepared generator is (ε, δ)-uniform with ε = 0.25, δ = 0.1
// (Definition 2.2), where δ bounds the chance that a preparation is
// off. A cell test passes at level alphaCell, so one item's test on one
// preparation passes with probability at least (1-δ)(1-alphaCell). The
// cell verdict and the volume verdict each fail falsely with
// probability at most alphaVerdict, so one run's false-failure rate is
// at most 1e-3.
const (
	eps          = 0.25
	delta        = 0.1
	alphaCell    = 0.01
	alphaVerdict = 5e-4
	memberTol    = 1e-6
)

// cellTally accumulates one item's sampled points per oracle cell.
type cellTally struct {
	item   gen.Item
	counts []int64
}

// inRows checks each point against the item's generated rows.
func inRows[P ~[]float64](it gen.Item, pts []P) error {
	for _, p := range pts {
		if len(p) != it.Node.Dim() {
			return fmt.Errorf("%s: point of dimension %d, want %d", it.Name, len(p), it.Node.Dim())
		}
		if !it.Node.Contains(p, memberTol) {
			return fmt.Errorf("%s: point %v violates the generated rows", it.Name, p)
		}
	}
	return nil
}

// addPoints checks each point against the generated rows and counts
// it in its oracle cell. The cell test takes the counted points as
// independent, so a round must not count one draw's points twice.
func addPoints[P ~[]float64](t *cellTally, pts []P) error {
	if err := inRows(t.item, pts); err != nil {
		return err
	}
	for _, p := range pts {
		t.counts[t.item.Oracle.Cell(p)]++
	}
	return nil
}

// volumeAnswer is one volume answer and its exact reference.
type volumeAnswer struct {
	what      string
	got, want float64
}

func volumeList(m map[string]volumeAnswer) []volumeAnswer {
	out := make([]volumeAnswer, 0, len(m))
	for _, a := range m {
		out = append(out, a)
	}
	return out
}

// outcome is what one set-up's checked round showed: each item's
// tolerance chi-square verdict, the distinct volume answers, and the
// deterministic checks (an error if one failed).
type outcome struct {
	cells   map[string]bool
	volumes []volumeAnswer
	err     error
}

// cellOutcome runs the tolerance chi-square on each item's tally.
func cellOutcome(tallies []*cellTally) map[string]bool {
	cells := map[string]bool{}
	for _, t := range tallies {
		name := t.item.Name
		if t.item.Target != "" && t.item.Target != name {
			name += " " + t.item.Target // items of one kind share a name
		}
		stat, p := oracle.ToleranceChiSquare(t.counts, t.item.Oracle.Probs, eps)
		cells[name] = p >= alphaCell
		if p < alphaCell {
			fmt.Fprintf(os.Stderr, "perfbench: cell test failed: %s (X²=%.1f p=%.2g counts=%v probs=%.3f)\n",
				name, stat, p, t.counts, t.item.Oracle.Probs)
		}
	}
	return cells
}

// verdict judges the set-ups' outcomes together. Each set-up prepares
// every item's generator afresh from its own randomness, so an item's
// set-ups are independent trials. The cell verdict has two parts at
// alphaVerdict/2 each: every item passes in at least the binomial lower
// bound of its set-ups (Bonferroni over items), so a generator broken on
// any one item or dimension fails the run; and the passes over all
// items and set-ups reach their binomial lower bound. The volume
// verdict pools the distinct answers of every set-up.
func verdict(outs []outcome) error {
	var errs []string
	passes := map[string]int{}
	for _, o := range outs {
		if o.err != nil {
			errs = append(errs, o.err.Error())
		}
		for name, ok := range o.cells {
			n := passes[name]
			if ok {
				n++
			}
			passes[name] = n
		}
	}
	if len(passes) > 0 {
		names := make([]string, 0, len(passes))
		total := 0
		for name, n := range passes {
			names = append(names, name)
			total += n
		}
		sort.Strings(names)
		p := (1 - delta) * (1 - alphaCell)
		need := oracle.BinomialLowerBound(len(outs), p, alphaVerdict/2/float64(len(names)))
		needAll := oracle.BinomialLowerBound(len(outs)*len(names), p, alphaVerdict/2)
		var counts []string
		for _, name := range names {
			counts = append(counts, fmt.Sprintf("%s %d", name, passes[name]))
			if passes[name] < need {
				errs = append(errs, fmt.Sprintf("cell tests: %s passed in %d of %d set-ups, need %d", name, passes[name], len(outs), need))
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: cell tests passed per item of %d set-ups (need %d each; %d of %d overall, need %d): %s\n",
			len(outs), need, total, len(outs)*len(names), needAll, strings.Join(counts, ", "))
		if total < needAll {
			errs = append(errs, fmt.Sprintf("cell tests: %d of %d passed, need %d", total, len(outs)*len(names), needAll))
		}
	}
	// Identical answers across set-ups come from one computation, not
	// independent trials: count each once.
	distinct := map[[2]float64]volumeAnswer{}
	for _, o := range outs {
		for _, a := range o.volumes {
			distinct[[2]float64{a.got, a.want}] = a
		}
	}
	if len(distinct) > 0 {
		pass := 0
		for _, a := range distinct {
			if oracle.WithinRel(a.got, a.want, eps) {
				pass++
			} else {
				fmt.Fprintf(os.Stderr, "perfbench: volume outside (1±%g): %s: %g vs exact %g\n", eps, a.what, a.got, a.want)
			}
		}
		need := oracle.BinomialLowerBound(len(distinct), 1-delta, alphaVerdict)
		fmt.Fprintf(os.Stderr, "perfbench: volumes: %d of %d within (1±%g), need %d\n", pass, len(distinct), eps, need)
		if pass < need {
			errs = append(errs, fmt.Sprintf("volumes: %d of %d within (1±%g), need %d", pass, len(distinct), eps, need))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}
