package main

import (
	"context"
	"fmt"
	"sync"

	"assertionbench/internal/bench"
	"assertionbench/internal/eval"
	"assertionbench/internal/fpv"
	"assertionbench/internal/verilog"
)

// recorded is one design's production FPV call: the lines the runner
// verified (after correction, when the corrector is on), the options it
// passed and the results.
type recorded struct {
	cell   string
	design bench.Design
	lines  []string
	opt    fpv.Options
	res    []fpv.Result
}

// recorder wraps the default verifier to keep every production result of
// the sequential check run.
type recorder struct {
	mu   sync.Mutex
	jobs []recorded
}

func (r *recorder) verifier(cell string) func() eval.Verifier {
	return func() eval.Verifier {
		return recVerifier{r: r, cell: cell, inner: eval.NewEngineVerifier().(eval.BatchVerifier)}
	}
}

type recVerifier struct {
	r     *recorder
	cell  string
	inner eval.BatchVerifier
}

func (v recVerifier) Verify(ctx context.Context, d bench.Design, nl *verilog.Netlist, a string, opt fpv.Options) fpv.Result {
	return v.VerifyBatch(ctx, d, nl, []string{a}, opt)[0]
}

func (v recVerifier) VerifyBatch(ctx context.Context, d bench.Design, nl *verilog.Netlist, lines []string, opt fpv.Options) []fpv.Result {
	rs := v.inner.VerifyBatch(ctx, d, nl, lines, opt)
	v.r.mu.Lock()
	v.r.jobs = append(v.r.jobs, recorded{cell: v.cell, design: d, lines: lines, opt: opt, res: rs})
	v.r.mu.Unlock()
	return rs
}

// referenceOptions selects the reference engine path: the tree-walking
// interpreter, per-property search, and no static pass, cone reduction
// or bit-slicing. It is the only place the benchmark sets engine knobs;
// the budgets are the ones the runner passed to production.
func referenceOptions(o fpv.Options) fpv.Options {
	o.Backend = fpv.BackendInterp
	o.Batch = fpv.BatchOff
	o.Static = fpv.StaticOff
	o.Cone = fpv.ConeOff
	o.Slices = fpv.SlicesOff
	return o
}

// disagreement is one assertion whose production verdict class differs
// from the reference path's.
type disagreement struct {
	cell, design, line string
	prod, ref          fpv.Result
}

func (d disagreement) String() string {
	return fmt.Sprintf("%s %s `%s`: production %v (exhaustive=%v static=%v), reference %v (exhaustive=%v)",
		d.cell, d.design, d.line, d.prod.Status, d.prod.Exhaustive, d.prod.Static, d.ref.Status, d.ref.Exhaustive)
}

// decidedPass is a pass backed by a proof: an exhaustive search that
// closed, or a static discharge.
func decidedPass(r fpv.Result) bool {
	return (r.Status == fpv.StatusProven || r.Status == fpv.StatusVacuous) && (r.Exhaustive || r.Static)
}

// conflicting applies oracle 6's rules: a proof on one side must not
// meet a counter-example on the other, two proofs must agree on status
// and vacuity, and an assertion that fails to parse or compile fails on
// both sides. A bounded pass against a counter-example is not a
// conflict: the bounded search simply did not reach the violation.
func conflicting(prod, ref fpv.Result) bool {
	switch {
	case (prod.Status == fpv.StatusError) != (ref.Status == fpv.StatusError):
		return true
	case decidedPass(prod) && ref.Status == fpv.StatusCEX, decidedPass(ref) && prod.Status == fpv.StatusCEX:
		return true
	case decidedPass(prod) && decidedPass(ref):
		return prod.Status != ref.Status
	}
	return false
}

// checkSummary is the verdict accuracy of the sequential check run.
type checkSummary struct {
	verdicts, nPass, nCEX, nError, boundedPass int
	mismatches, conflicts                      []disagreement
}

// referenceCheck re-verifies every recorded design on the reference path
// with the same lines and budgets, on the worker count, and compares
// verdict classes.
func referenceCheck(ctx context.Context, jobs []recorded, workers int) (checkSummary, error) {
	refs := make([][]fpv.Result, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := fpv.NewEngine()
			for i := range next {
				nl, err := bench.Elaborate(jobs[i].design)
				if err != nil {
					errs[i] = err
					continue
				}
				refs[i] = eng.VerifyAll(ctx, nl, jobs[i].lines, referenceOptions(jobs[i].opt))
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	var sum checkSummary
	for i, j := range jobs {
		if errs[i] != nil {
			return sum, errs[i]
		}
		for k, prod := range j.res {
			ref := refs[i][k]
			sum.verdicts++
			switch eval.Classify(prod) {
			case eval.VerdictPass:
				sum.nPass++
			case eval.VerdictCEX:
				sum.nCEX++
			case eval.VerdictError:
				sum.nError++
			}
			if prod.Status == fpv.StatusBoundedPass {
				sum.boundedPass++
			}
			d := disagreement{j.cell, j.design.Name, j.lines[k], prod, ref}
			if eval.Classify(prod) != eval.Classify(ref) {
				sum.mismatches = append(sum.mismatches, d)
			}
			if conflicting(prod, ref) {
				sum.conflicts = append(sum.conflicts, d)
			}
		}
	}
	return sum, nil
}
