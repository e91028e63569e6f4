package mine

import (
	"context"
	"fmt"

	"assertionbench/internal/rtlgraph"
	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// GoldMine mines assertions the GOLDMINE way: random-stimulus traces
// provide the data, a static dependency analysis (cone of influence)
// restricts the feature space per target, a decision tree generalizes the
// trace into candidate A -> C rules, and the FPV engine keeps only proven
// rules. Cancelling ctx aborts the verification filter with ctx.Err().
func GoldMine(ctx context.Context, nl *verilog.Netlist, opt Options) ([]Mined, error) {
	opt = opt.withDefaults()
	cands, err := goldMineCandidates(nl, opt)
	if err != nil {
		return nil, err
	}
	return dedupeAndVerify(ctx, nl, cands, opt)
}

// goldMineCandidates learns GoldMine's unverified candidate rules, in
// the order the verification filter considers them.
func goldMineCandidates(nl *verilog.Netlist, opt Options) ([]candidate, error) {
	tr, err := sim.RandomTrace(nl, opt.TraceCycles, 2, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("mine: trace generation failed: %w", err)
	}
	g := rtlgraph.Build(nl)

	var cands []candidate
	for _, target := range miningTargets(nl) {
		cands = append(cands, mineTarget(nl, g, tr, target, opt)...)
	}
	return cands, nil
}

// miningTargets selects output and state nets worth explaining.
func miningTargets(nl *verilog.Netlist) []int {
	var out []int
	seen := map[int]bool{}
	for _, i := range nl.Outputs {
		if !nl.Nets[i].IsClock && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for _, i := range nl.Regs {
		if !seen[i] && nl.Nets[i].Width <= 8 {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// mineTarget learns rules predicting each observed value of one target.
func mineTarget(nl *verilog.Netlist, g *rtlgraph.Graph, tr *sim.Trace, target int, opt Options) []candidate {
	// Features: atoms over nets inside the target's cone of influence,
	// close in dependency distance, with small widths.
	var atoms []atom
	for _, n := range g.InfluencersAtDepth(target, 2) {
		net := nl.Nets[n]
		if net.IsClock || net.Width > 4 || n == target {
			continue
		}
		for _, v := range atomValues(tr, n, 2) {
			atoms = append(atoms, atom{net: n, val: v})
		}
	}
	if len(atoms) == 0 {
		return nil
	}
	// Sequential targets are predicted one cycle ahead (|=>); outputs of
	// combinational logic are explained in-cycle (|->).
	seq := nl.Nets[target].IsReg
	lag := 0
	if seq {
		lag = 1
	}
	rows := make([]dtRow, 0, tr.Len()-lag)
	targetVals := atomValues(tr, target, 4)

	var out []candidate
	for _, tv := range targetVals {
		rows = rows[:0]
		for c := 0; c+lag < tr.Len(); c++ {
			feat := make([]bool, len(atoms))
			for fi, a := range atoms {
				feat[fi] = a.holds(tr, c)
			}
			rows = append(rows, dtRow{features: feat, label: tr.Value(c+lag, target) == tv})
		}
		tree := learnTree(rows, len(atoms), opt.MaxTreeDepth, opt.MinSupport)
		rules := extractRules(tree, opt.MinSupport)
		kept := 0
		for _, r := range rules {
			if !r.label {
				continue // only rules that imply target==tv
			}
			exprs := make([]verilog.Expr, 0, len(r.conds))
			for _, cond := range r.conds {
				exprs = append(exprs, atoms[cond.feature].expr(nl, cond.negated))
			}
			cons := atom{net: target, val: tv}.expr(nl, false)
			a := &sva.Assertion{
				Ante:       []sva.Step{{Expr: conjoin(exprs)}},
				Cons:       []sva.Step{{Expr: cons}},
				NonOverlap: seq,
			}
			a.Source = a.String()
			out = append(out, candidate{a: a, support: r.support})
			kept++
			if kept >= opt.MaxPerTarget {
				break
			}
		}
	}
	return out
}
