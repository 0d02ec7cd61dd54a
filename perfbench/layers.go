package main

import (
	"strings"

	cdb "repro"
)

// wholeKeys drops the per-disjunct entries ("key#i"): they repeat the
// effort their whole key already counts.
func wholeKeys(cs []cdb.ObservedCost) []cdb.ObservedCost {
	out := make([]cdb.ObservedCost, 0, len(cs))
	for _, c := range cs {
		if !strings.Contains(c.Key, "#") {
			out = append(out, c)
		}
	}
	return out
}

// costLayers derives the per-layer counter metrics from the program's
// per-key observed costs, summed over keys.
func costLayers(cs []cdb.ObservedCost) map[string]float64 {
	var t cdb.ObservedCost
	for _, c := range wholeKeys(cs) {
		t.Preps += c.Preps
		t.PrepNanos += c.PrepNanos
		t.Draws += c.Draws
		t.Samples += c.Samples
		t.SampleNanos += c.SampleNanos
		t.QueueNanos += c.QueueNanos
		t.Binds += c.Binds
		t.BindNanos += c.BindNanos
		t.WalkSteps += c.WalkSteps
		t.WalkAccepted += c.WalkAccepted
		t.OracleCalls += c.OracleCalls
		t.Rounds += c.Rounds
		t.Accepts += c.Accepts
		t.Evals += c.Evals
		t.ElimNanos += c.ElimNanos
		t.AtomsIn += c.AtomsIn
		t.AtomsOut += c.AtomsOut
	}
	f := func(v int64) float64 { return float64(v) }
	return map[string]float64{
		"runtime.queue_us_per_draw":        ratio(f(t.QueueNanos)/1e3, f(t.Draws)),
		"runtime.bind_us_per_draw":         ratio(f(t.BindNanos)/1e3, f(t.Draws)),
		"runtime.sample_ms_per_draw":       ratio(f(t.SampleNanos)/1e6, f(t.Draws)),
		"core.prepare_ms_per_call":         ratio(f(t.PrepNanos)/1e6, f(t.Preps)),
		"core.rejection_rounds_per_point":  ratio(f(t.Rounds), f(t.Samples)),
		"core.accept_ratio":                ratio(f(t.Accepts), f(t.Rounds)),
		"walk.steps_per_point":             ratio(f(t.WalkSteps), f(t.Samples)),
		"walk.accept_ratio":                ratio(f(t.WalkAccepted), f(t.WalkSteps)),
		"lp.oracle_calls_per_point":        ratio(f(t.OracleCalls), f(t.Samples)),
		"constraint.eliminate_us_per_eval": ratio(f(t.ElimNanos)/1e3, f(t.Evals)),
		"constraint.atoms_out_per_in":      ratio(f(t.AtomsOut), f(t.AtomsIn)),
	}
}
