package bench

import (
	"context"
	"reflect"
	"testing"

	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
	"assertionbench/internal/mine"
	"assertionbench/internal/verilog"
)

// sequentialExample is the reference for MineExample: GoldMine, then
// Harm, one after the other, merged and capped the same way.
func sequentialExample(ctx context.Context, d Design, opt ICLOptions) (llm.Example, error) {
	opt = opt.withDefaults()
	nl, err := verilog.ElaborateSource(d.Source, d.Name)
	if err != nil {
		return llm.Example{}, err
	}
	mopt := mine.Options{Seed: opt.Seed, FPV: opt.FPV, MaxAssertions: opt.MaxAssertions}
	gm, err := mine.GoldMine(ctx, nl, mopt)
	if err != nil {
		return llm.Example{}, err
	}
	hm, err := mine.Harm(ctx, nl, mopt)
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
		texts = append(texts, fallbackAssertions(nl)...)
		if len(texts) > opt.MaxAssertions {
			texts = texts[:opt.MaxAssertions]
		}
	}
	return llm.Example{Name: d.Name, Source: d.Source, Assertions: texts}, nil
}

// TestMineExampleMatchesSequentialMerge checks that mining both miners
// concurrently builds the examples a GoldMine-then-Harm sequence builds,
// on the fine-tuning corpus's designs, budget and caps.
func TestMineExampleMatchesSequentialMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the whole corpus")
	}
	designs := append(TrainDesigns(), TestCorpus()...)
	for _, seed := range []int64{1, 2} {
		for _, maxAssertions := range []int{6, 10} {
			opt := ICLOptions{Seed: seed, MaxAssertions: maxAssertions, FPV: fpv.Options{
				MaxProductStates: 1500, MaxInputBits: 6, MaxInputSamples: 8,
				RandomRuns: 8, RandomDepth: 32, Seed: seed}}
			for _, d := range designs {
				got, err := MineExample(context.Background(), d, opt)
				if err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
				want, err := sequentialExample(context.Background(), d, opt)
				if err != nil {
					t.Fatalf("%s reference: %v", d.Name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d max %d: %q, sequential %q", d.Name, seed, maxAssertions, got.Assertions, want.Assertions)
				}
			}
		}
	}
}
