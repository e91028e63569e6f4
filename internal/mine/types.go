// Package mine implements the two assertion miners the paper uses to
// produce formally verified assertions for in-context examples and
// fine-tuning data (Sec. III): a GOLDMINE-style miner (decision-tree
// learning over simulation traces, guided by lightweight static analysis)
// and a HARM-style hint/template miner. Every assertion either miner emits
// has been proven by the FPV engine on the design, mirroring the paper's
// JasperGold filtering step.
package mine

import (
	"context"
	"fmt"
	"sort"

	"assertionbench/internal/fpv"
	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// Mined is one verified assertion with its mining metadata.
type Mined struct {
	Assertion *sva.Assertion
	// Support is the number of trace positions where the antecedent held.
	Support int
	// Coverage is Support normalized by trace length.
	Coverage float64
	// Complexity counts atoms plus temporal window length (rank input).
	Complexity int
	// Rank is the figure of merit (higher is better), per the ranking
	// approach of Pal et al. [14]: reward trace coverage, penalize
	// complexity.
	Rank float64
	// Result is the FPV verdict (always a proven verdict for kept output).
	Result fpv.Result
}

// Options configure mining.
type Options struct {
	// TraceCycles is the random-stimulus trace length. Default 512.
	TraceCycles int
	// Seed drives stimulus generation. Default 1.
	Seed int64
	// MinSupport is the minimum antecedent occurrences on the trace for a
	// candidate to be considered. Default 4.
	MinSupport int
	// MaxPerTarget bounds rules kept per mining target. Default 4.
	MaxPerTarget int
	// MaxAssertions bounds the total output. Default 16.
	MaxAssertions int
	// MaxTreeDepth bounds decision-tree depth. Default 3.
	MaxTreeDepth int
	// FPV configures the verification filter.
	FPV fpv.Options
}

func (o Options) withDefaults() Options {
	if o.TraceCycles == 0 {
		o.TraceCycles = 512
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MinSupport == 0 {
		o.MinSupport = 4
	}
	if o.MaxPerTarget == 0 {
		o.MaxPerTarget = 4
	}
	if o.MaxAssertions == 0 {
		o.MaxAssertions = 16
	}
	if o.MaxTreeDepth == 0 {
		o.MaxTreeDepth = 3
	}
	return o
}

// atom is the predicate net == val over trace rows.
type atom struct {
	net int
	val uint64
}

func (a atom) holds(tr *sim.Trace, cycle int) bool {
	return tr.Value(cycle, a.net) == a.val
}

// expr renders the atom (or its negation) as an AST expression.
func (a atom) expr(nl *verilog.Netlist, negated bool) verilog.Expr {
	n := nl.Nets[a.net]
	op := "=="
	val := a.val
	if negated {
		if n.Width == 1 {
			val = a.val ^ 1 // !=0 on a 1-bit net reads better as ==1
		} else {
			op = "!="
		}
	}
	return &verilog.Binary{
		Op: op,
		X:  &verilog.Ident{Name: n.Name},
		Y:  &verilog.Number{Value: val, Width: n.Width},
	}
}

func (a atom) String() string { return fmt.Sprintf("net%d==%d", a.net, a.val) }

// conjoin folds expressions with &&.
func conjoin(exprs []verilog.Expr) verilog.Expr {
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &verilog.Binary{Op: "&&", X: out, Y: e}
	}
	return out
}

// atomValues returns the distinct values a net takes on the trace, capped.
func atomValues(tr *sim.Trace, net, cap int) []uint64 {
	seen := map[uint64]int{}
	for c := 0; c < tr.Len(); c++ {
		seen[tr.Value(c, net)]++
	}
	vals := make([]uint64, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	// Most frequent first, then numeric for determinism.
	sort.Slice(vals, func(i, j int) bool {
		if seen[vals[i]] != seen[vals[j]] {
			return seen[vals[i]] > seen[vals[j]]
		}
		return vals[i] < vals[j]
	})
	if len(vals) > cap {
		vals = vals[:cap]
	}
	return vals
}

// Both runs GoldMine and Harm concurrently on nl and returns each
// miner's output. The miners share only the netlist, whose lazy memos
// are synchronized, so the results are those of running them one after
// the other. Both returns after both miners have finished. On failure
// it returns no results and GoldMine's error takes precedence, as in a
// GoldMine-then-Harm sequence.
func Both(ctx context.Context, nl *verilog.Netlist, opt Options) (gm, hm []Mined, err error) {
	var herr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		hm, herr = Harm(ctx, nl, opt)
	}()
	gm, err = GoldMine(ctx, nl, opt)
	<-done
	if err == nil {
		err = herr
	}
	if err != nil {
		return nil, nil, err
	}
	return gm, hm, nil
}

// dedupeAndVerify turns unique candidates into FPV-proven Mined entries.
// It keeps candidate order and stops once MaxAssertions entries are kept,
// and verifies in quota-sized batches: the next MaxAssertions-len(kept)
// unique candidates go through one VerifyBatch call, on an engine whose
// private graph cache lives for this call so that later batches reuse
// the reachability graph of earlier ones. A batch can fill the quota only
// at its last element, so exactly the candidates a one-at-a-time filter
// would verify are verified, and VerifyBatch's verdicts equal
// per-property verification's (dverify oracle 5): the output is the one
// fpv.Verify on each candidate in turn would give, whatever
// Options.FPV.Batch says.
// Cancellation aborts the remaining verification queue and returns
// ctx.Err() — never a silently shortened result set.
func dedupeAndVerify(ctx context.Context, nl *verilog.Netlist, cands []candidate, opt Options) ([]Mined, error) {
	// A non-positive cap still keeps the first passing candidate.
	quota := max(opt.MaxAssertions, 1)
	e := &fpv.Engine{Graphs: &fpv.GraphCache{}}
	seen := map[string]bool{}
	var out []Mined
	var batch []candidate
	var cs []*sva.Compiled
	for next := 0; len(out) < quota; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch, cs = batch[:0], cs[:0]
		for ; next < len(cands) && len(batch) < quota-len(out); next++ {
			c := cands[next]
			key := c.a.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			compiled, err := sva.Compile(c.a, nl)
			if err != nil {
				continue // an assertion that does not compile never passes
			}
			batch = append(batch, c)
			cs = append(cs, compiled)
		}
		if len(batch) == 0 {
			break
		}
		results := e.VerifyBatch(ctx, nl, cs, opt.FPV)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, res := range results {
			if res.Status != fpv.StatusProven && res.Status != fpv.StatusBoundedPass {
				continue
			}
			m := Mined{
				Assertion:  batch[i].a,
				Support:    batch[i].support,
				Coverage:   float64(batch[i].support) / float64(opt.TraceCycles),
				Complexity: complexity(batch[i].a),
				Result:     res,
			}
			m.Rank = rankOf(m)
			out = append(out, m)
		}
	}
	sortByRank(out)
	return out, nil
}

type candidate struct {
	a       *sva.Assertion
	support int
}

// complexity counts boolean atoms plus the temporal window span.
func complexity(a *sva.Assertion) int {
	atoms := 0
	var count func(verilog.Expr)
	count = func(e verilog.Expr) {
		switch v := e.(type) {
		case *verilog.Binary:
			if v.Op == "&&" || v.Op == "||" {
				count(v.X)
				count(v.Y)
				return
			}
			atoms++
		case *verilog.Unary:
			count(v.X)
		default:
			atoms++
		}
	}
	for _, s := range a.Ante {
		count(s.Expr)
	}
	for _, s := range a.Cons {
		count(s.Expr)
	}
	return atoms + a.WindowLength()
}

// rankOf is the figure of merit: coverage rewarded, complexity penalized.
func rankOf(m Mined) float64 {
	return m.Coverage / float64(m.Complexity)
}

func sortByRank(ms []Mined) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Rank != ms[j].Rank {
			return ms[i].Rank > ms[j].Rank
		}
		return ms[i].Assertion.String() < ms[j].Assertion.String()
	})
}

// Rank re-ranks a mined set in place (exposed for the ranking ablation).
func Rank(ms []Mined) {
	for i := range ms {
		ms[i].Rank = rankOf(ms[i])
	}
	sortByRank(ms)
}
