package mine

import (
	"context"
	"fmt"

	"assertionbench/internal/rtlgraph"
	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// Harm mines assertions the HARM way: a library of temporal hint templates
// is instantiated over dependency-related signal pairs, candidates are
// screened against the trace (the antecedent must occur and the consequent
// must never be contradicted), and survivors are FPV-verified.
//
// Templates (b statically depends on a; c is a second influencer):
//
//	H1: a == va            |->  b == vb
//	H2: a == va            |=>  b == vb
//	H3: $rose(a)           |=>  b == vb
//	H4: a == va ##1 a == va2 |=> b == vb
//	H5: a == va && c == vc |=>  b == vb
//	H6: a == va            |->  ##[1:2] b == vb   (ranged response)
func Harm(ctx context.Context, nl *verilog.Netlist, opt Options) ([]Mined, error) {
	opt = opt.withDefaults()
	cands, err := harmCandidates(nl, opt)
	if err != nil {
		return nil, err
	}
	return dedupeAndVerify(ctx, nl, cands, opt)
}

// harmCandidates instantiates and screens Harm's templates into
// unverified candidates, in the order the verification filter considers
// them.
func harmCandidates(nl *verilog.Netlist, opt Options) ([]candidate, error) {
	tr, err := sim.RandomTrace(nl, opt.TraceCycles, 2, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("mine: trace generation failed: %w", err)
	}
	g := rtlgraph.Build(nl)

	var cands []candidate
	for _, target := range miningTargets(nl) {
		cands = append(cands, harmTarget(nl, g, tr, target, opt)...)
	}
	return cands, nil
}

func harmTarget(nl *verilog.Netlist, g *rtlgraph.Graph, tr *sim.Trace, target int, opt Options) []candidate {
	infl := g.InfluencersAtDepth(target, 2)
	var feats []int
	for _, n := range infl {
		if !nl.Nets[n].IsClock && nl.Nets[n].Width <= 4 && n != target {
			feats = append(feats, n)
		}
	}
	if len(feats) == 0 {
		return nil
	}
	targetVals := atomValues(tr, target, 2)
	var out []candidate

	addStep := func(ante []sva.Step, nonOverlap bool, support int, consVal uint64) {
		a := &sva.Assertion{
			Ante:       ante,
			Cons:       []sva.Step{{Expr: atom{net: target, val: consVal}.expr(nl, false)}},
			NonOverlap: nonOverlap,
		}
		a.Source = a.String()
		out = append(out, candidate{a: a, support: support})
	}

	for _, fa := range feats {
		for _, va := range atomValues(tr, fa, 2) {
			anteAtom := atom{net: fa, val: va}
			// H1 / H2: single-atom antecedent, same or next cycle.
			for _, lag := range []int{0, 1} {
				for _, tv := range targetVals {
					support, violated := screenSimple(tr, anteAtom, atom{net: target, val: tv}, lag)
					if support >= opt.MinSupport && !violated {
						addStep([]sva.Step{{Expr: anteAtom.expr(nl, false)}}, lag == 1, support, tv)
					}
				}
			}
			// H3: $rose(a) |=> b == vb (only meaningful for 1-bit a).
			if nl.Nets[fa].Width == 1 {
				for _, tv := range targetVals {
					support, violated := screenRose(tr, fa, atom{net: target, val: tv})
					if support >= opt.MinSupport && !violated {
						rose := &verilog.Call{Name: "$rose", Args: []verilog.Expr{&verilog.Ident{Name: nl.Nets[fa].Name}}}
						addStep([]sva.Step{{Expr: rose}}, true, support, tv)
					}
				}
			}
			// H6: ranged response a==va |-> ##[1:2] b==vb, kept only when
			// no fixed-delay variant already explains the pair.
			for _, tv := range targetVals {
				if _, fixedViolated := screenSimple(tr, anteAtom, atom{net: target, val: tv}, 1); !fixedViolated {
					continue // the fixed-delay H2 form is strictly stronger
				}
				support, violated := screenRanged(tr, anteAtom, atom{net: target, val: tv}, 1, 2)
				if support >= opt.MinSupport && !violated {
					a := &sva.Assertion{
						Ante:          []sva.Step{{Expr: anteAtom.expr(nl, false)}},
						Cons:          []sva.Step{{Delay: 1, Expr: atom{net: target, val: tv}.expr(nl, false)}},
						ConsDelaySpan: 1,
					}
					a.Source = a.String()
					out = append(out, candidate{a: a, support: support})
				}
			}
			// H4: two-cycle antecedent a==va ##1 a==va2.
			for _, va2 := range atomValues(tr, fa, 2) {
				second := atom{net: fa, val: va2}
				for _, tv := range targetVals {
					support, violated := screenTwoCycle(tr, anteAtom, second, atom{net: target, val: tv})
					if support >= opt.MinSupport && !violated {
						addStep([]sva.Step{
							{Expr: anteAtom.expr(nl, false)},
							{Delay: 1, Expr: second.expr(nl, false)},
						}, true, support, tv)
					}
				}
			}
		}
	}
	// H5: pairwise antecedents over the first few features.
	for i := 0; i < len(feats) && i < 4; i++ {
		for j := i + 1; j < len(feats) && j < 4; j++ {
			a1 := atom{net: feats[i], val: firstVal(tr, feats[i])}
			a2 := atom{net: feats[j], val: firstVal(tr, feats[j])}
			for _, tv := range targetVals {
				support, violated := screenPair(tr, a1, a2, atom{net: target, val: tv})
				if support >= opt.MinSupport && !violated {
					ante := conjoin([]verilog.Expr{a1.expr(nl, false), a2.expr(nl, false)})
					addStep([]sva.Step{{Expr: ante}}, true, support, tv)
				}
			}
		}
	}
	if len(out) > opt.MaxPerTarget*4 {
		out = out[:opt.MaxPerTarget*4]
	}
	return out
}

func firstVal(tr *sim.Trace, net int) uint64 {
	vals := atomValues(tr, net, 1)
	return vals[0]
}

func screenSimple(tr *sim.Trace, ante, cons atom, lag int) (support int, violated bool) {
	for c := 0; c+lag < tr.Len(); c++ {
		if ante.holds(tr, c) {
			support++
			if !cons.holds(tr, c+lag) {
				return support, true
			}
		}
	}
	return support, false
}

func screenRose(tr *sim.Trace, net int, cons atom) (support int, violated bool) {
	for c := 1; c+1 < tr.Len(); c++ {
		if tr.Value(c, net) == 1 && tr.Value(c-1, net) == 0 {
			support++
			if !cons.holds(tr, c+1) {
				return support, true
			}
		}
	}
	return support, false
}

// screenRanged accepts the candidate when the consequent holds at some
// offset in [lo,hi] after every antecedent occurrence.
func screenRanged(tr *sim.Trace, ante, cons atom, lo, hi int) (support int, violated bool) {
	for c := 0; c+hi < tr.Len(); c++ {
		if !ante.holds(tr, c) {
			continue
		}
		support++
		ok := false
		for d := lo; d <= hi; d++ {
			if cons.holds(tr, c+d) {
				ok = true
				break
			}
		}
		if !ok {
			return support, true
		}
	}
	return support, false
}

func screenTwoCycle(tr *sim.Trace, first, second, cons atom) (support int, violated bool) {
	for c := 0; c+2 < tr.Len(); c++ {
		if first.holds(tr, c) && second.holds(tr, c+1) {
			support++
			if !cons.holds(tr, c+2) {
				return support, true
			}
		}
	}
	return support, false
}

func screenPair(tr *sim.Trace, a1, a2, cons atom) (support int, violated bool) {
	for c := 0; c+1 < tr.Len(); c++ {
		if a1.holds(tr, c) && a2.holds(tr, c) {
			support++
			if !cons.holds(tr, c+1) {
				return support, true
			}
		}
	}
	return support, false
}
