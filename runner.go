package assertionbench

import (
	"context"
	"iter"
	"time"

	"assertionbench/internal/bench"
	"assertionbench/internal/eval"
	"assertionbench/internal/llm"
)

// RunOptions configure one evaluation run of one Generator.
type RunOptions struct {
	// Shots is k for k-shot ICL (the paper evaluates 1 and 5).
	Shots int
	// Seed drives generation; results are deterministic per seed.
	Seed int64
	// UseCorrector enables the paper's Fig. 4 stage-3 syntax corrector
	// (on for COTS models, off for fine-tuned models per Fig. 8).
	UseCorrector bool
	// MaxDesigns truncates the corpus for quick runs (0 = all).
	MaxDesigns int
	// Workers sets the worker-pool size: 0 means GOMAXPROCS, 1 forces a
	// sequential run. Any worker count produces identical results at the
	// same seed.
	Workers int
	// Deadline bounds the whole run's wall clock (anytime mode): when it
	// expires, designs already verified keep their verdicts, in-flight
	// designs keep decided verdicts with the rest Unknown, and unreached
	// designs come back as Truncated stubs. Zero disables the budget.
	Deadline time.Duration
	// DesignBudget bounds each design's verification wall clock the same
	// way, independent of Deadline. Zero disables it.
	DesignBudget time.Duration
	// OnDesignDone, when non-nil, observes every successfully completed
	// design: its global corpus index, its own wall time, and the time
	// since the run started. Called concurrently from worker goroutines —
	// it must be safe for concurrent use and fast. Errored jobs and
	// designs an expired Deadline never reached are not reported.
	OnDesignDone func(index int, wall, sinceStart time.Duration)
	// ShardIndex/ShardCount restrict the run to one of count contiguous
	// corpus shards (ShardCount 0 = unsharded). Concatenating all shards
	// reproduces the unsharded run exactly.
	ShardIndex int
	ShardCount int
	// Backend selects the execution engine for simulation and formal
	// verification: BackendCompiled (default) or BackendInterp (the
	// reference tree-walk, for cross-checking). Overrides
	// Verify.Backend when non-empty.
	Backend string
	// Batch selects whether each design's candidate list is verified
	// over a shared reachability graph (BatchAuto, default) or one
	// assertion at a time (BatchOff, the reference path). Verdicts are
	// identical either way. Overrides Verify.Batch when non-empty.
	Batch string
	// Cone selects cone-of-influence reduction (ConeAuto, default) or
	// full-design exploration (ConeOff, the reference path). Verdicts
	// agree semantically either way. Overrides Verify.Cone when
	// non-empty.
	Cone string
	// Slices selects 64-way bit-parallel bounded exploration
	// (SlicesAuto, default) or the scalar reference loops (SlicesOff).
	// Verdicts are identical either way. Overrides Verify.Slices when
	// non-empty.
	Slices string
	// Static selects the abstract-interpretation pre-verification pass
	// (StaticAuto, default) or skips it (StaticOff, the pure-search
	// reference path). Verdicts agree semantically either way. Overrides
	// Verify.Static when non-empty.
	Static string
	// Verify bounds the built-in FPV verifier; zero fields select the
	// evaluation-grade budget.
	Verify VerifyOptions
	// Verifier replaces the built-in FPV engine when non-nil. The
	// instance is shared by all workers and must be safe for concurrent
	// use.
	Verifier Verifier
	// CacheDir, when non-empty, attaches the persistent artifact store
	// at that directory before the run (see SetCacheDir): compiled
	// programs and FPV reachability graphs are read from and written
	// behind to disk, so a fresh process starts warm. Off by default.
	// The attachment is process-wide and sticky across runs.
	CacheDir string
	// ErrorPolicy selects what a failed design job does to the rest of
	// the run: ErrorPolicyFail (default) ends the stream at the first
	// per-design error, exactly as a sequential walk would;
	// ErrorPolicyContinue converts the failure into an errored
	// DesignOutcome at its corpus position and finishes the run.
	// Cancellation always ends the stream under either policy.
	ErrorPolicy string
	// Retries bounds how many times a design job whose failure is
	// transient (artifact-store I/O, injected faults) is re-attempted
	// before ErrorPolicy applies, each retry after a deterministic
	// seeded backoff. 0 disables retry; negative is an error.
	Retries int
	// Resume serves designs that a previous run over the same generator,
	// corpus, seed and options already decided straight from the run
	// manifest (journaled through the artifact store as designs
	// complete) and evaluates only the undecided rest. The resumed
	// stream is identical to a never-interrupted run. Requires an
	// attached artifact store (CacheDir or SetCacheDir).
	Resume bool
}

// Error policies for RunOptions.ErrorPolicy.
const (
	// ErrorPolicyFail ends the stream at the first per-design error (the
	// default, and the original contract).
	ErrorPolicyFail = eval.ErrorPolicyFail
	// ErrorPolicyContinue streams a failed design as an errored outcome
	// and finishes the run.
	ErrorPolicyContinue = eval.ErrorPolicyContinue
)

func (o RunOptions) internal() eval.RunOptions {
	opt := eval.RunOptions{
		Shots:        o.Shots,
		Seed:         o.Seed,
		UseCorrector: o.UseCorrector,
		FPV:          o.Verify.internal(),
		MaxDesigns:   o.MaxDesigns,
		Workers:      o.Workers,
		Deadline:     o.Deadline,
		DesignBudget: o.DesignBudget,
		OnDesignDone: o.OnDesignDone,
		ShardIndex:   o.ShardIndex,
		ShardCount:   o.ShardCount,
		CacheDir:     o.CacheDir,
		ErrorPolicy:  o.ErrorPolicy,
		Retries:      o.Retries,
		Resume:       o.Resume,
	}
	if o.Backend != "" {
		opt.FPV.Backend = o.Backend
	}
	if o.Batch != "" {
		opt.FPV.Batch = o.Batch
	}
	if o.Cone != "" {
		opt.FPV.Cone = o.Cone
	}
	if o.Slices != "" {
		opt.FPV.Slices = o.Slices
	}
	if o.Static != "" {
		opt.FPV.Static = o.Static
	}
	if o.Verifier != nil {
		a := verifierAdapter{v: o.Verifier}
		opt.NewVerifier = func() eval.Verifier { return a }
	}
	return opt
}

// Runner evaluates one Generator over a benchmark corpus. Both consumption
// modes share one implementation — Run is a collector over the same
// stream Stream exposes — so they cannot drift apart.
type Runner struct {
	gen      eval.Generator
	examples []llm.Example
	corpus   []bench.Design
	opt      eval.RunOptions
}

// NewRunner builds a Runner over the benchmark's test corpus and mined
// in-context examples.
func NewRunner(gen Generator, b *Benchmark, opt RunOptions) *Runner {
	return &Runner{
		gen:      adaptGenerator(gen),
		examples: b.exp.ICL,
		corpus:   b.exp.Corpus,
		opt:      opt.internal(),
	}
}

// NewRunnerOver builds a Runner over an arbitrary design list and example
// set — for corpora the benchmark does not ship.
func NewRunnerOver(gen Generator, designs []Design, examples []Example, opt RunOptions) *Runner {
	return &Runner{
		gen:      adaptGenerator(gen),
		examples: internalExamples(examples),
		corpus:   internalDesigns(designs),
		opt:      opt.internal(),
	}
}

// Run evaluates the corpus and returns the batch result. On error
// (including ctx.Err() after cancellation) the partial RunResult holds
// every outcome before the failure, exactly as a sequential walk would.
func (r *Runner) Run(ctx context.Context) (RunResult, error) {
	res, err := eval.Run(ctx, r.gen, r.examples, r.corpus, r.opt)
	return newRunResult(res), err
}

// Stream evaluates the corpus and yields one DesignOutcome per design in
// corpus order, each delivered the moment it (and every design before it)
// finishes — incremental results with the exact determinism guarantees of
// Run, which is itself a collector over this stream. The sequence ends
// after the last design or early with a single non-nil error: the first
// per-design failure, or ctx.Err() on cancellation. Breaking out of the
// loop early cancels and drains the worker pool before the iterator
// returns; no goroutines outlive the loop.
func (r *Runner) Stream(ctx context.Context) iter.Seq2[DesignOutcome, error] {
	return func(yield func(DesignOutcome, error) bool) {
		for o, err := range eval.Stream(ctx, r.gen, r.examples, r.corpus, r.opt) {
			if err != nil {
				yield(DesignOutcome{}, err)
				return
			}
			if !yield(newDesignOutcome(o), nil) {
				return
			}
		}
	}
}
