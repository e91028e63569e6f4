package eval

import (
	"context"
	"time"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
)

// RunOptions configure one evaluation run of one generator at one shot
// count.
type RunOptions struct {
	// Shots is k for k-shot ICL (the paper evaluates 1 and 5).
	Shots int
	// Seed drives generation; results are deterministic per seed.
	Seed int64
	// UseCorrector enables stage 3 of Fig. 4 (on for COTS models, off for
	// fine-tuned models per Fig. 8).
	UseCorrector bool
	// FPV bounds the verification engine per assertion.
	FPV fpv.Options
	// MaxDesigns truncates the corpus for quick runs (0 = all).
	MaxDesigns int
	// Workers sets the evaluation worker-pool size: 0 means
	// runtime.GOMAXPROCS(0), 1 forces a sequential run. Any worker count
	// produces byte-identical results at the same seed. Negative counts
	// are an error, not a silent clamp.
	Workers int
	// Deadline, when positive, bounds the whole run's verification wall
	// time (anytime mode): designs finished in budget keep their
	// verdicts, a design caught mid-verification keeps its decided
	// verdicts with the rest VerdictUnknown, and designs never reached
	// stream as truncated stubs. The run ends without error; every
	// outcome carries Truncated reporting whether the budget cut it.
	// Zero disables; negative is an error.
	Deadline time.Duration
	// DesignBudget, when positive, bounds each design's verification
	// wall time the same way. Zero disables; negative is an error.
	DesignBudget time.Duration
	// OnDesignDone, when non-nil, observes every completed design: its global
	// corpus index, the job's own wall time, and the completion time
	// since the run started. Workers invoke it concurrently the moment
	// the design finishes (not in corpus order) — implementations must
	// be concurrency-safe and fast. Error'd jobs are not reported.
	OnDesignDone func(index int, wall, done time.Duration)
	// ShardIndex/ShardCount restrict the run to the index-th of count
	// contiguous corpus shards (after MaxDesigns truncation), for
	// splitting a sweep across processes or machines. ShardCount 0 means
	// unsharded. Per-design seeds follow global corpus positions, so
	// concatenating the shard results of all indices reproduces the
	// unsharded run exactly.
	ShardIndex int
	ShardCount int
	// NewVerifier builds one Verifier per worker (nil = the FPV engine).
	// Custom verifiers let callers swap the model checker while keeping
	// the rest of the pipeline; each instance is owned by a single worker,
	// so implementations need not be concurrency-safe.
	NewVerifier func() Verifier
	// CacheDir, when non-empty, attaches the persistent artifact store
	// at that directory to the process-wide elaboration cache before the
	// run: compiled programs and reachability graphs are read from (and
	// written behind to) disk, so a fresh process starts warm. The
	// attachment is process-wide and sticky — it outlives the run, and
	// later runs without CacheDir keep using it (pass a new dir to
	// move it; detaching mid-process is not supported through here).
	CacheDir string
	// ErrorPolicy selects what a failed design job does to the rest of
	// the run. ErrorPolicyFail (the default) keeps the original
	// contract: the first per-design error — at the lowest corpus index,
	// exactly as a sequential walk would hit it — ends the stream.
	// ErrorPolicyContinue degrades gracefully instead: the failure (a
	// generator error, a recovered panic, transient retries exhausted)
	// becomes an errored DesignOutcome (Errored set, Err carrying the
	// message, no verdicts), streamed at its corpus position, and the
	// run finishes. Cancellation is never converted: ctx errors end the
	// stream under either policy.
	ErrorPolicy string
	// Retries bounds how many times a design job whose failure is
	// transient (faults.IsTransient: artifact-store I/O, injected
	// faults) is re-attempted before ErrorPolicy applies. Each retry
	// waits a deterministic splitmix64-jittered backoff derived from
	// (Seed, corpus index, attempt) — no math/rand, no wall clock in
	// the decision, so retried runs stay reproducible. 0 (the default)
	// disables retry; negative is an error. Permanent failures (design
	// errors, plain panics) never retry.
	Retries int
	// Resume skips designs that a previous run over the same generator,
	// corpus, seed and options already decided: their outcomes are
	// served from the run manifest — a blob the runner journals
	// write-behind through the artifact store as designs complete — and
	// workers evaluate only the undecided ones (Unknown, truncated,
	// errored, or never reached). The resumed stream is byte-identical
	// to a never-interrupted run. Requires an attached artifact store
	// (CacheDir here, or a prior SetCacheDir); a missing or unreadable
	// manifest resumes from nothing rather than failing.
	Resume bool
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Shots == 0 {
		o.Shots = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ShardCount == 0 {
		o.ShardCount = 1
	}
	if o.ErrorPolicy == "" {
		o.ErrorPolicy = ErrorPolicyFail
	}
	// Evaluation-grade FPV budget (bounded verdicts on the big designs,
	// exhaustive on the control-dominated ones), applied field-wise so a
	// caller can override one bound without losing the others.
	if o.FPV.MaxProductStates == 0 {
		o.FPV.MaxProductStates = 3000
	}
	if o.FPV.MaxInputBits == 0 {
		o.FPV.MaxInputBits = 8
	}
	if o.FPV.MaxInputSamples == 0 {
		o.FPV.MaxInputSamples = 12
	}
	if o.FPV.RandomRuns == 0 {
		o.FPV.RandomRuns = 24
	}
	if o.FPV.RandomDepth == 0 {
		o.FPV.RandomDepth = 48
	}
	if o.FPV.Seed == 0 {
		o.FPV.Seed = o.Seed
	}
	if o.NewVerifier == nil {
		o.NewVerifier = NewEngineVerifier
	}
	return o
}

// DesignOutcome records one design's generated assertions and verdicts.
type DesignOutcome struct {
	// Index is the design's global corpus position (stable across worker
	// counts and shards; per-design seeds derive from it).
	Index  int
	Design string
	// Generated is the raw candidate list; Corrected the post-corrector
	// list (nil when the corrector is off).
	Generated []string
	Corrected []string
	Verdicts  []Verdict
	// StaticDischarged counts this design's verdicts decided by the
	// static pre-verification pass without any state-space search.
	StaticDischarged int
	// Channel bookkeeping from the generator (for ablation analysis).
	OffTask  int
	Grounded int
	// Truncated reports that an anytime budget (RunOptions.Deadline or
	// DesignBudget) expired before this design's verification finished:
	// decided verdicts are kept, the rest are VerdictUnknown, and a
	// design the run never reached has no verdicts at all. Always false
	// in unbudgeted runs.
	Truncated bool
	// Errored reports that this design's job failed — a design or
	// generator error, a recovered panic, transient retries exhausted —
	// and ErrorPolicyContinue converted the failure into an outcome
	// instead of ending the stream. Err holds the failure message; an
	// errored outcome carries no verdicts and is never recorded as
	// decided in the run manifest, so a resumed run re-attempts it.
	// Always false under the default ErrorPolicyFail, where the failure
	// ends the stream instead.
	Errored bool
	Err     string
}

// RunResult is one (generator, k) evaluation over the corpus.
type RunResult struct {
	Model   string
	Shots   int
	Metrics Metrics
	Designs []DesignOutcome
}

// Run evaluates a Generator on the corpus with k-shot ICL and returns the
// batch result: it is a thin collector over Stream, so batch and
// streaming modes cannot drift apart. The corpus decomposes into
// per-design jobs on a bounded worker pool (RunOptions.Workers); results
// merge back in corpus order, so parallel runs are deterministic and
// identical to sequential runs at the same seed. On error (including
// ctx.Err() after cancellation) the partial RunResult holds every outcome
// before the failure, exactly as a sequential walk would.
func Run(ctx context.Context, gen Generator, examples []llm.Example, corpus []bench.Design, opt RunOptions) (RunResult, error) {
	res := RunResult{Model: gen.Name(), Shots: opt.withDefaults().Shots}
	for outcome, err := range Stream(ctx, gen, examples, corpus, opt) {
		if err != nil {
			return res, err
		}
		for _, v := range outcome.Verdicts {
			res.Metrics.Add(v)
		}
		res.Metrics.NStatic += outcome.StaticDischarged
		if outcome.Errored {
			res.Metrics.NErrored++
		}
		res.Designs = append(res.Designs, outcome)
	}
	return res, nil
}
