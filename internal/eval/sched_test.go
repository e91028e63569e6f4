package eval

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/llm"
)

// TestWorkerCountsByteIdentical is the scheduling half of the merge
// contract: every worker-pool size must reproduce the sequential
// reference exactly — outcome for outcome, field for field — at the same
// seed, however the workers' completions interleave.
func TestWorkerCountsByteIdentical(t *testing.T) {
	e := testExperiment(t, 12)
	gen := NewModelGenerator(llm.GPT4o())
	base := RunOptions{Shots: 5, UseCorrector: true, Seed: 7}

	seqOpt := base
	seqOpt.Workers = 1
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, seqOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt := base
			opt.Workers = workers
			got, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%d workers differ from sequential\nseq: %+v\ngot: %+v", workers, ref.Metrics, got.Metrics)
			}
		})
	}
}

// TestSchedIndexHookBreaksIdentity proves the oracle-10 mutation seam is
// observable: misrouting two reorder-buffer slots must make the
// scheduled stream differ from the sequential reference (and must not
// wedge the emitter — the swap is a bijection, so every slot fills).
func TestSchedIndexHookBreaksIdentity(t *testing.T) {
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT35())
	base := RunOptions{Shots: 1, UseCorrector: true, Seed: 3}

	seqOpt := base
	seqOpt.Workers = 1
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, seqOpt)
	if err != nil {
		t.Fatal(err)
	}

	SchedIndexHook = func(i int) int {
		switch i {
		case 0:
			return 1
		case 1:
			return 0
		}
		return i
	}
	defer func() { SchedIndexHook = nil }()

	opt := base
	opt.Workers = 4
	got, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Designs) != len(ref.Designs) {
		t.Fatalf("mutated run yielded %d outcomes, want %d", len(got.Designs), len(ref.Designs))
	}
	if reflect.DeepEqual(ref, got) {
		t.Fatal("index-swap mutation was not observable in the stream")
	}
}

// gatedGenerator records the design of every Generate call and holds
// each call until n calls have arrived, so the first n jobs the pool
// starts are pinned down before any of them can finish and free a worker.
type gatedGenerator struct {
	Generator
	n       int
	mu      sync.Mutex
	started []string
	release chan struct{}
}

func (g *gatedGenerator) Generate(ctx context.Context, d bench.Design, icl []llm.Example, opt GenOptions) (GenOutput, error) {
	g.mu.Lock()
	g.started = append(g.started, d.Name)
	if len(g.started) == g.n {
		close(g.release)
	}
	g.mu.Unlock()
	select {
	case <-g.release:
	case <-ctx.Done():
		return GenOutput{}, ctx.Err()
	}
	return g.Generator.Generate(ctx, d, icl, opt)
}

// TestStreamStartsInCorpusOrder: the pool starts jobs in corpus order,
// so the first Workers jobs started are the first Workers designs. A
// streamed outcome waits in the reorder buffer only for designs before
// it, so starting later designs first would delay every delivery.
func TestStreamStartsInCorpusOrder(t *testing.T) {
	e := testExperiment(t, 12)
	const workers = 3
	want := map[string]bool{}
	for _, d := range e.Corpus[:workers] {
		want[d.Name] = true
	}
	for rep := 0; rep < 20; rep++ {
		gen := &gatedGenerator{Generator: NewModelGenerator(llm.GPT35()), n: workers, release: make(chan struct{})}
		if _, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{Shots: 1, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		first := gen.started[:workers]
		for _, name := range first {
			if !want[name] {
				t.Fatalf("rep %d: first jobs started %v, want the first %d corpus designs", rep, first, workers)
			}
		}
	}
}
