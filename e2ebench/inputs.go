package main

import (
	"fmt"
	"math/rand"

	"assertionbench/internal/llm"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlGrid     = "cots-grid"
	wlFinetune = "finetune-store"
)

var workloads = []string{wlGrid, wlFinetune}

// cell is one evaluation run: one model at one shot count. For the
// fine-tuned cells Profile names the base the model is tuned from.
type cell struct {
	Profile string
	Shots   int
}

func (c cell) label() string { return fmt.Sprintf("%s@%d", c.Profile, c.Shots) }

// inputs is everything a workload hands the program. It is a pure
// function of the workload name and the benchmark seed (makeInputs), so
// the same seed gives the same inputs; the program never sees the seed
// itself, only these values.
type inputs struct {
	Workload string
	// RunSeed is eval.RunOptions.Seed for every cell, and the mining and
	// fine-tuning seed.
	RunSeed int64
	// Cells run in order within one repetition.
	Cells []cell
	// EvalDesigns are the corpus indices every cell evaluates, in order.
	EvalDesigns []int
	// MineDesigns are the corpus indices mined into the fine-tuning
	// corpus (finetune only), after the five training designs.
	MineDesigns []int
	// Epochs of fine-tuning (finetune only).
	Epochs int
	// Workers is the evaluation pool size of timed repetitions.
	Workers int
}

// corpusSize is the number of designs in bench.TestCorpus.
const corpusSize = 100

// finetuneSplitSeed draws the fine-tuning split: the 75/25 permutation
// eval.Experiment draws at seed 1. The split is the same for every
// benchmark seed, so that seeds vary what the models sample and the
// miners search, not which 25 designs are held out: a split drawn per
// seed moves the workload's cost by up to 2x between seeds.
const finetuneSplitSeed = 1

// makeInputs derives a workload's inputs from the seed. The benchmark
// seed is the program's run seed, so seed 1 reproduces the defaults of
// abench, figures and finetune.
func makeInputs(workload string, seed int64, workers int) (inputs, error) {
	in := inputs{Workload: workload, RunSeed: seed, Workers: workers}
	all := make([]int, corpusSize)
	for i := range all {
		all[i] = i
	}
	switch workload {
	case wlGrid:
		for _, p := range llm.COTSProfiles() {
			for _, k := range []int{1, 5} {
				in.Cells = append(in.Cells, cell{p.Name, k})
			}
		}
		in.EvalDesigns = all
	case wlFinetune:
		perm := rand.New(rand.NewSource(finetuneSplitSeed)).Perm(corpusSize)
		cut := corpusSize * 3 / 4
		in.MineDesigns = perm[:cut]
		in.EvalDesigns = perm[cut:]
		in.Epochs = 20
		for _, p := range []llm.Profile{llm.CodeLlama2(), llm.Llama3()} {
			for _, k := range []int{1, 5} {
				in.Cells = append(in.Cells, cell{p.Name, k})
			}
		}
	default:
		return inputs{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return in, nil
}
