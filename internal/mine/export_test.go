package mine

import (
	"context"

	"assertionbench/internal/fpv"
	"assertionbench/internal/verilog"
)

// GoldMineReference, HarmReference and SecurityReference run a miner's
// candidate generation through referenceFilter, the per-candidate
// verification filter the batched dedupeAndVerify must reproduce.
func GoldMineReference(ctx context.Context, nl *verilog.Netlist, opt Options) ([]Mined, error) {
	return mineReference(ctx, nl, opt, goldMineCandidates)
}

func HarmReference(ctx context.Context, nl *verilog.Netlist, opt Options) ([]Mined, error) {
	return mineReference(ctx, nl, opt, harmCandidates)
}

func SecurityReference(ctx context.Context, nl *verilog.Netlist, opt Options) ([]Mined, error) {
	return mineReference(ctx, nl, opt, securityCandidates)
}

func mineReference(ctx context.Context, nl *verilog.Netlist, opt Options, gen func(*verilog.Netlist, Options) ([]candidate, error)) ([]Mined, error) {
	opt = opt.withDefaults()
	cands, err := gen(nl, opt)
	if err != nil {
		return nil, err
	}
	return referenceFilter(ctx, nl, cands, opt)
}

// referenceFilter verifies the unique candidates one at a time with
// fpv.Verify, in order, until MaxAssertions are kept.
func referenceFilter(ctx context.Context, nl *verilog.Netlist, cands []candidate, opt Options) ([]Mined, error) {
	seen := map[string]bool{}
	var out []Mined
	for _, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		key := c.a.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		res := fpv.Verify(ctx, nl, c.a, opt.FPV)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res.Status != fpv.StatusProven && res.Status != fpv.StatusBoundedPass {
			continue
		}
		m := Mined{
			Assertion:  c.a,
			Support:    c.support,
			Coverage:   float64(c.support) / float64(opt.TraceCycles),
			Complexity: complexity(c.a),
			Result:     res,
		}
		m.Rank = rankOf(m)
		out = append(out, m)
		if len(out) >= opt.MaxAssertions {
			break
		}
	}
	sortByRank(out)
	return out, nil
}
