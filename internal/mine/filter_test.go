package mine_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/mine"
	"assertionbench/internal/verilog"
)

// mineFPV is the miners' verification budget on the fine-tuning path
// (eval.ExperimentOptions.MineFPV).
func mineFPV(seed int64) fpv.Options {
	return fpv.Options{MaxProductStates: 1500, MaxInputBits: 6, MaxInputSamples: 8,
		RandomRuns: 8, RandomDepth: 32, Seed: seed}
}

func elaborate(t *testing.T, d bench.Design) *verilog.Netlist {
	t.Helper()
	nl, err := verilog.ElaborateSource(d.Source, d.Name)
	if err != nil {
		t.Fatalf("%s: elaborate: %v", d.Name, err)
	}
	return nl
}

type minerFn func(context.Context, *verilog.Netlist, mine.Options) ([]mine.Mined, error)

// diffMined reports the first difference between two mined sets, field
// for field including the full fpv.Result, or "" when they are equal.
func diffMined(got, want []mine.Mined) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, reference %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("entry %d: %q %+v, reference %q %+v",
				i, got[i].Assertion, got[i].Result, want[i].Assertion, want[i].Result)
		}
	}
	return ""
}

// TestBatchedFilterMatchesReference pins the batched verification filter
// to the per-candidate reference: on the training designs and the whole
// corpus, at two seeds, both caps the fine-tuning path uses and a
// non-positive cap, each miner's output must equal the reference's
// field for field.
func TestBatchedFilterMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the whole corpus")
	}
	designs := append(bench.TrainDesigns(), bench.TestCorpus()...)
	miners := []struct {
		name     string
		run, ref minerFn
		designs  []bench.Design
	}{
		{"goldmine", mine.GoldMine, mine.GoldMineReference, designs},
		{"harm", mine.Harm, mine.HarmReference, designs},
		{"security", mine.Security, mine.SecurityReference, bench.SecurityDesigns()},
	}
	compared := 0
	for _, m := range miners {
		for _, d := range m.designs {
			nl := elaborate(t, d)
			for _, seed := range []int64{1, 2} {
				for _, maxAssertions := range []int{6, 10, -1} {
					opt := mine.Options{Seed: seed, MaxAssertions: maxAssertions, FPV: mineFPV(seed)}
					got, err := m.run(context.Background(), nl, opt)
					if err != nil {
						t.Fatalf("%s %s: %v", m.name, d.Name, err)
					}
					want, err := m.ref(context.Background(), nl, opt)
					if err != nil {
						t.Fatalf("%s %s reference: %v", m.name, d.Name, err)
					}
					if diff := diffMined(got, want); diff != "" {
						t.Errorf("%s %s seed %d max %d: %s", m.name, d.Name, seed, maxAssertions, diff)
					}
					compared += len(want)
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no mined entries compared")
	}
	t.Logf("%d mined entries equal to the per-candidate reference", compared)
}

// TestBothMatchesSequential checks that the concurrent pair returns what
// GoldMine then Harm return one after the other.
func TestBothMatchesSequential(t *testing.T) {
	for _, d := range bench.TrainDesigns() {
		nl := elaborate(t, d)
		for _, seed := range []int64{1, 2} {
			opt := mine.Options{Seed: seed, MaxAssertions: 10, FPV: mineFPV(seed)}
			gm, hm, err := mine.Both(context.Background(), nl, opt)
			if err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			wantGM, err := mine.GoldMine(context.Background(), nl, opt)
			if err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			wantHM, err := mine.Harm(context.Background(), nl, opt)
			if err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			if diff := diffMined(gm, wantGM); diff != "" {
				t.Errorf("%s seed %d goldmine: %s", d.Name, seed, diff)
			}
			if diff := diffMined(hm, wantHM); diff != "" {
				t.Errorf("%s seed %d harm: %s", d.Name, seed, diff)
			}
		}
	}
}
