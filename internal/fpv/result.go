// Package fpv is a formal property verification engine for elaborated
// Verilog netlists and the paper's SVA subset. It substitutes for the
// commercial JasperGold engine in the evaluation pipeline (Fig. 4 / Fig. 8
// of the paper): explicit-state breadth-first reachability over the
// product of the design's state space and the assertion's monitor
// automaton, with vacuity detection and counter-example extraction.
//
// When the design's data-input width or the product state count exceeds
// configured bounds, the engine degrades to bounded exploration (sampled
// inputs and/or depth-bounded search) the way industrial BMC flows do; a
// property that survives bounded search is reported StatusBoundedPass.
package fpv

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// Status is the verdict lattice of the paper's Fig. 2, extended with the
// bounded verdict.
type Status int

// Verdicts.
const (
	// StatusProven: exhaustive search closed with no violation and the
	// antecedent reachable (the "Valid" outcome of Fig. 2).
	StatusProven Status = iota
	// StatusVacuous: exhaustive search closed, no violation, but the
	// antecedent (pre-condition) is unreachable.
	StatusVacuous
	// StatusBoundedPass: bounded search found no violation.
	StatusBoundedPass
	// StatusCEX: a counter-example trace refutes the assertion.
	StatusCEX
	// StatusError: the assertion failed to parse or type-check.
	StatusError
	// StatusUnknown: a verification budget (a context deadline carried by
	// ctx) expired before the search decided the property. Unlike
	// StatusError-with-ctx.Err() — which marks an externally canceled call
	// whose results a caller should discard — an unknown verdict is a
	// well-defined anytime outcome: the property was neither proven nor
	// refuted within the budget, and a rerun with a larger budget (warm
	// caches make it cheaper) converges to the
	// unbudgeted verdict.
	StatusUnknown
)

func (s Status) String() string {
	switch s {
	case StatusProven:
		return "proven"
	case StatusVacuous:
		return "vacuous"
	case StatusBoundedPass:
		return "bounded_pass"
	case StatusCEX:
		return "cex"
	case StatusError:
		return "error"
	case StatusUnknown:
		return "unknown"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// IsPass reports whether the verdict counts toward the paper's Pass
// metric (valid + vacuous outcomes).
func (s Status) IsPass() bool {
	return s == StatusProven || s == StatusVacuous || s == StatusBoundedPass
}

// CEX is a counter-example: the input stimulus per cycle plus the sampled
// values of every net along the refuting path.
type CEX struct {
	// Inputs[t] is the data-input vector (netlist input order) at cycle t.
	Inputs [][]uint64
	// Sampled[t] is the full sampled environment at cycle t.
	Sampled [][]uint64
	// ViolationCycle is the cycle at which the consequent failed.
	ViolationCycle int
	// AttemptCycle is the cycle at which the violated attempt started.
	AttemptCycle int
}

// Format renders the counter-example against the netlist for diagnostics.
func (c *CEX) Format(nl *verilog.Netlist) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "counter-example: attempt @%d violated @%d\n", c.AttemptCycle, c.ViolationCycle)
	widest := 5
	for _, n := range nl.Nets {
		if len(n.Name) > widest {
			widest = len(n.Name)
		}
	}
	fmt.Fprintf(&sb, "%-*s", widest+2, "cycle")
	for t := range c.Sampled {
		fmt.Fprintf(&sb, "%5d", t)
	}
	sb.WriteByte('\n')
	for _, n := range nl.Nets {
		fmt.Fprintf(&sb, "%-*s", widest+2, n.Name)
		for t := range c.Sampled {
			fmt.Fprintf(&sb, "%5x", c.Sampled[t][n.Index])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Result is the outcome of verifying one assertion.
type Result struct {
	Status Status
	// Err explains StatusError results.
	Err error
	// CEX is non-nil for StatusCEX.
	CEX *CEX
	// NonVacuous reports whether any explored path matched the antecedent.
	NonVacuous bool
	// Exhaustive reports whether the product space was fully closed.
	Exhaustive bool
	// States is the number of distinct product states visited.
	States int
	// Depth is the deepest cycle reached.
	Depth int
	// Static reports that the verdict was discharged by the static
	// pre-verification pass (internal/vstatic) without any state-space
	// search. Static results are always sound: proofs and vacuity come
	// from the abstract fixpoint, and counter-examples are confirmed by
	// concrete replay before being reported.
	Static bool
}

// Options configure the engine.
type Options struct {
	// MaxProductStates bounds the BFS frontier before degrading to
	// bounded mode. Default 200000.
	MaxProductStates int
	// MaxInputBits is the widest data-input vector enumerated
	// exhaustively per state. Default 12.
	MaxInputBits int
	// MaxInputSamples is the number of input vectors tried per state when
	// enumeration is infeasible. Default 24.
	MaxInputSamples int
	// RandomRuns and RandomDepth configure the random-walk violation hunt
	// appended in bounded mode. Defaults 256 and 64.
	RandomRuns  int
	RandomDepth int
	// Seed makes bounded exploration deterministic. Default 1.
	Seed int64
	// Backend selects the execution engine for the search's hot loops:
	// BackendCompiled (the default) runs design and monitor on the
	// lowered register-machine programs, BackendInterp on the reference
	// tree-walk. Verdicts are bit-identical (dverify oracle 4).
	Backend string
	// Batch selects whether multi-assertion entry points (VerifyAll,
	// VerifyBatch callers) amortize design-state exploration across the
	// batch through a shared reachability graph: BatchAuto (the default)
	// batches, BatchOff forces the per-property reference search.
	// Verdicts are bit-identical either way (dverify oracle 5).
	Batch string
	// Cone selects cone-of-influence reduction: ConeAuto (the default)
	// projects each property's search onto the transitive fan-in of its
	// support nets (verilog.Cone), ConeOff explores the full design.
	// Verdicts agree semantically either way — identical when both runs
	// are exhaustive, and any counter-example replays on the full design
	// (dverify oracle 6).
	Cone string
	// Slices selects 64-way bit-parallel exploration of the bounded
	// random hunt and graph edge expansion: SlicesAuto (the default)
	// runs 64 stimulus trajectories per pass through the design on the
	// bit-sliced machine where the design supports it, SlicesOff forces
	// the scalar reference loops. Verdicts are bit-identical either way
	// (dverify oracle 7); only the compiled backend slices.
	Slices string
	// Static selects the abstract-interpretation pre-verification pass:
	// StaticAuto (the default) classifies each property against the
	// design's ternary-lattice fixpoint before any search — statically
	// decided properties return without exploring a single state, and
	// proven-constant nets sharpen cone-of-influence reduction —
	// StaticOff skips the pass entirely. Verdicts agree semantically
	// either way (dverify oracle 8): static proofs/vacuity match what
	// exhaustive search would conclude, and static counter-examples are
	// confirmed by concrete replay before being reported.
	Static string
}

// Execution backends.
const (
	BackendCompiled = "compiled"
	BackendInterp   = "interp"
)

// ValidBackend reports whether s names an execution backend ("" selects
// the default). Callers that accept user input (CLIs, the evaluation
// runner) check this up front so a typo fails fast instead of turning
// every verdict into StatusError.
func ValidBackend(s string) bool {
	return s == "" || s == BackendCompiled || s == BackendInterp
}

// Batching modes for Options.Batch.
const (
	BatchAuto = "auto"
	BatchOff  = "off"
)

// ValidBatch reports whether s names a batching mode ("" selects the
// default, BatchAuto).
func ValidBatch(s string) bool {
	return s == "" || s == BatchAuto || s == BatchOff
}

// Cone-of-influence modes for Options.Cone.
const (
	ConeAuto = "auto"
	ConeOff  = "off"
)

// ValidCone reports whether s names a cone mode ("" selects the default,
// ConeAuto).
func ValidCone(s string) bool {
	return s == "" || s == ConeAuto || s == ConeOff
}

// Bit-slicing modes for Options.Slices.
const (
	SlicesAuto = "auto"
	SlicesOff  = "off"
)

// ValidSlices reports whether s names a slicing mode ("" selects the
// default, SlicesAuto).
func ValidSlices(s string) bool {
	return s == "" || s == SlicesAuto || s == SlicesOff
}

// Static pre-verification modes for Options.Static.
const (
	StaticAuto = "auto"
	StaticOff  = "off"
)

// ValidStatic reports whether s names a static-analysis mode ("" selects
// the default, StaticAuto).
func ValidStatic(s string) bool {
	return s == "" || s == StaticAuto || s == StaticOff
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.MaxProductStates == 0 {
		o.MaxProductStates = 200000
	}
	if o.MaxInputBits == 0 {
		o.MaxInputBits = 12
	}
	if o.MaxInputSamples == 0 {
		o.MaxInputSamples = 24
	}
	if o.RandomRuns == 0 {
		o.RandomRuns = 256
	}
	if o.RandomDepth == 0 {
		o.RandomDepth = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Backend == "" {
		o.Backend = BackendCompiled
	}
	if o.Batch == "" {
		o.Batch = BatchAuto
	}
	if o.Cone == "" {
		o.Cone = ConeAuto
	}
	if o.Slices == "" {
		o.Slices = SlicesAuto
	}
	if o.Static == "" {
		o.Static = StaticAuto
	}
	return o
}

// ctxResult classifies a context error into the result an interrupted
// search returns: an expired deadline is a budget running out — a
// legitimate anytime outcome, StatusUnknown — while a cancellation is an
// external abort and stays StatusError, so existing callers that treat
// canceled verdicts as discardable keep doing so. Every search loop in
// the engine polls its context (each 64 BFS expansions, each hunt run),
// so a budgeted call stops within microseconds of its deadline.
func ctxResult(err error) Result {
	if errors.Is(err, context.DeadlineExceeded) {
		return Result{Status: StatusUnknown, Err: err}
	}
	return Result{Status: StatusError, Err: err}
}

// Verify parses nothing: it verifies an already-parsed assertion. The
// search loops poll ctx; a canceled call returns StatusError with Err set
// to ctx.Err(), and a call whose ctx deadline expired returns
// StatusUnknown (the budgeted early-out).
func Verify(ctx context.Context, nl *verilog.Netlist, a *sva.Assertion, opt Options) Result {
	c, err := sva.Compile(a, nl)
	if err != nil {
		return Result{Status: StatusError, Err: err}
	}
	return VerifyCompiled(ctx, nl, c, opt)
}

// VerifySource parses and verifies an assertion given as text.
func VerifySource(ctx context.Context, nl *verilog.Netlist, src string, opt Options) Result {
	a, err := sva.Parse(src)
	if err != nil {
		return Result{Status: StatusError, Err: err}
	}
	return Verify(ctx, nl, a, opt)
}

// VerifyAll verifies a batch of assertion texts, returning one result per
// input in order. The batch shares one reusable engine.
func VerifyAll(ctx context.Context, nl *verilog.Netlist, srcs []string, opt Options) []Result {
	return NewEngine().VerifyAll(ctx, nl, srcs, opt)
}
