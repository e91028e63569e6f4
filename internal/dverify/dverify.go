// Package dverify is the differential verification harness: a generative
// self-check of the stack every evaluation verdict depends on. It draws
// seeded random well-formed designs from the corpus generator families
// (bench.FuzzSpec), seeded random SVA properties over each design's nets,
// and cross-checks eleven independent oracles:
//
//  1. print/parse round-trip — every generated design must survive
//     verilog.PrintFile -> Lex -> Parse -> Elaborate with a structurally
//     identical netlist (Netlist.Signature equality);
//  2. sim vs monitor vs FPV — the SVA monitor's verdict over simulated
//     traces must agree with the FPV engine's exhaustive verdict,
//     counter-examples must replay on the event-driven simulator at the
//     reported cycle, and bounded-mode FPV must never contradict
//     exhaustive mode;
//  3. determinism — the same seed must produce byte-identical
//     eval.Stream outcomes across sequential, parallel and sharded runs
//     over the generated corpus;
//  4. backend — the compiled register machine must agree bit for bit
//     with the tree-walking interpreter (OracleBackend);
//  5. batch — the batched shared-reachability verifier must reproduce
//     the per-property search field for field (OracleBatch);
//  6. cone — cone-of-influence-reduced FPV must agree semantically with
//     the full-design search, counter-examples included (OracleCone);
//  7. sliced — 64-way bit-sliced bounded exploration must reproduce the
//     scalar loops field for field (OracleSliced);
//  8. static — FPV with the static pre-verification pass (abstract-
//     interpretation discharge + constant-swept cones) must agree
//     semantically with the pure-search reference, statically produced
//     counter-examples included (OracleStatic);
//  9. store — FPV served from the persistent artifact store (programs
//     and reachability graphs round-tripped through internal/astore
//     blobs and read back by a fresh cache) must reproduce the
//     store-free search field for field (OracleStore);
//  10. sched — 2- and 4-worker pools, whose jobs complete out of corpus
//     order, must reproduce the sequential eval.Stream byte for byte,
//     sharded concatenation included (OracleSched);
//  11. fault — under deterministic injected faults, retries must absorb
//     bounded transient failures invisibly, a permanent failure under
//     the continue policy must surface as exactly one errored outcome
//     at its corpus position, and a resumed run must serve every
//     manifest-decided design without re-verification while converging
//     field for field to the fault-free sequential stream (OracleFault).
//
// A disagreement is shrunk (over the design genome) to a minimal
// reproduction and optionally dumped as a .v/.sva pair. The public facade
// is assertionbench.SelfCheck; the CLI is cmd/fuzzcheck.
package dverify

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"assertionbench/internal/astore"
	"assertionbench/internal/bench"
)

// Options configure one self-check run.
type Options struct {
	// Scenarios is the number of generated designs (default 50).
	Scenarios int
	// PropsPerDesign is the number of random properties checked against
	// each design (default 3).
	PropsPerDesign int
	// Seed drives design and property generation; a run is a pure
	// function of (Options, code under test). Default 1.
	Seed int64
	// DumpDir receives .v/.sva reproduction pairs for every disagreement
	// ("" disables dumping).
	DumpDir string
	// TraceCount and TraceCycles bound the random simulation traces fed
	// to the monitor per property (defaults 3 and 48).
	TraceCount  int
	TraceCycles int
	// MaxShrinkSteps bounds the shrink loop per disagreement (default 64).
	MaxShrinkSteps int
	// SkipDeterminism disables the whole-corpus eval.Stream oracles —
	// 3 (determinism), 10 (sched) and 11 (fault) — for callers that only
	// want the per-design oracles.
	SkipDeterminism bool
}

func (o Options) withDefaults() Options {
	if o.Scenarios == 0 {
		o.Scenarios = 50
	}
	if o.PropsPerDesign == 0 {
		o.PropsPerDesign = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TraceCount == 0 {
		o.TraceCount = 3
	}
	if o.TraceCycles == 0 {
		o.TraceCycles = 48
	}
	if o.MaxShrinkSteps == 0 {
		o.MaxShrinkSteps = 64
	}
	return o
}

// Oracle identifies which cross-check a disagreement came from.
type Oracle string

// Oracles.
const (
	OracleRoundTrip   Oracle = "roundtrip"
	OracleAgreement   Oracle = "agreement"
	OracleDeterminism Oracle = "determinism"
	// OracleBackend cross-checks the compiled register-machine backend
	// against the tree-walking interpreter: simulators must track each
	// other bit for bit along random runs, monitors must flag identical
	// violations over identical traces, and FPV verdicts (every result
	// field, down to the CEX stimulus) must be identical per seed.
	OracleBackend Oracle = "backend"
	// OracleBatch cross-checks the batched verifier (shared reachability
	// graph + shared hunt traces, fpv.VerifyBatch) against the
	// per-property reference search: every result field, down to the CEX
	// stimulus, must be identical per seed at both the deep and the
	// starved budget, and batched counter-examples must replay on the
	// simulator.
	OracleBatch Oracle = "batch"
	// OracleCone cross-checks cone-of-influence-reduced FPV against the
	// full-design search. The reduction changes the explored space, so
	// the contract is semantic agreement rather than field identity:
	// exhaustive verdicts must coincide, bounded findings must not
	// contradict exhaustive ones, the reduced search must close whenever
	// the full one does, and every counter-example from either side must
	// replay on the full design.
	OracleCone Oracle = "cone"
	// OracleSliced cross-checks the 64-way bit-sliced bounded
	// exploration against the scalar reference loops: every result
	// field, down to the CEX stimulus, must be identical per seed at
	// both budgets.
	OracleSliced Oracle = "sliced"
	// OracleStatic cross-checks FPV with the static pre-verification pass
	// (vstatic abstract interpretation: property discharge before search
	// plus constant-swept cone projections) against the pure-search
	// reference (Static=off). The pass changes what gets searched — and a
	// discharged property is never searched at all — so the contract is
	// semantic agreement rather than field identity: a pure search that
	// closes exhaustively forces the static side to close too, two
	// exhaustive verdicts must name the same status and vacuity, bounded
	// findings must not contradict exhaustive verdicts from the other
	// side, and every counter-example — including the zero-stimulus
	// witnesses the static pass fabricates without any search — must
	// replay on the simulator at the reported cycle.
	OracleStatic Oracle = "static"
	// OracleStore cross-checks FPV served from the persistent artifact
	// store against a store-free reference: the compiled execution
	// program must survive an encode/Put/Get/decode round trip byte for
	// byte and be adopted by a fresh elaboration of the same source, and
	// a batch verified through a cold memory cache over a populated disk
	// store — every graph it touches a disk read — must reproduce the
	// store-free search's results field for field, down to the CEX
	// stimulus, with counter-examples independently replayed on the
	// simulator. The mutation seam is astore.LoadHook: a corrupting hook
	// behind the checksum must surface as a disagreement here.
	OracleStore Oracle = "store"
	// OracleSched cross-checks 2- and 4-worker evaluation pools against
	// the sequential reference walk: at the same seed the rendered
	// outcome streams must be byte-identical whatever order the workers
	// complete jobs in, and concatenating sharded 2-worker streams must
	// reproduce the unsharded one.
	// The in-order reorder buffer is what this oracle pins down; its
	// mutation seam is eval.SchedIndexHook — a hook that misroutes two
	// buffer slots must surface as a disagreement here.
	OracleSched Oracle = "sched"
	// OracleFault cross-checks the fault-tolerance layer against the
	// fault-free sequential reference under deterministic injected
	// faults (internal/faultinject): a chaos run whose transient faults
	// all fit inside the retry budget must be byte-identical to the
	// reference; a permanently failing design under ErrorPolicyContinue
	// must stream as exactly one errored outcome at its corpus position
	// with every other design untouched; and resuming that run after the
	// fault clears must converge to the reference with zero verifier
	// calls on manifest-decided designs (counted through a wrapping
	// verifier). The mutation seams are eval.RetryDropHook (a dropped
	// retry must surface here) and eval.ManifestDropHook (a skipped
	// manifest entry must surface through the verify-call count).
	OracleFault Oracle = "fault"
)

// Disagreement is one oracle violation, shrunk to a minimal genome.
type Disagreement struct {
	Oracle Oracle
	// Spec is the (shrunk) design genome that reproduces the finding.
	Spec bench.FuzzSpec
	// Property is the assertion text involved ("" for design-level
	// findings such as round-trip failures).
	Property string
	// Detail is a human-readable description of the contradiction.
	Detail string
	// DumpPath is the reproduction file pair's base path ("" if dumping
	// was disabled).
	DumpPath string
}

func (d Disagreement) String() string {
	s := fmt.Sprintf("[%s]", d.Oracle)
	if d.Spec.Family != "" {
		s += fmt.Sprintf(" spec %s", d.Spec)
	}
	if d.Property != "" {
		s += fmt.Sprintf(" property %q", d.Property)
	}
	s += ": " + d.Detail
	if d.DumpPath != "" {
		s += " (repro at " + d.DumpPath + ")"
	}
	return s
}

// Report summarizes one self-check run.
type Report struct {
	// Scenarios is the number of designs generated and checked.
	Scenarios int
	// Properties is the number of (design, property) pairs checked.
	Properties int
	// Exhaustive counts properties whose reference verdict was an
	// exhaustive (closed product space) FPV run.
	Exhaustive int
	// CEXs counts counter-example verdicts replayed on the simulator.
	CEXs int
	// RefStatus tallies the reference engine's verdicts by status name
	// (proven/vacuous/bounded_pass/cex) — the denominator context for
	// Exhaustive: cex verdicts are definitive and replay-checked, so only
	// the bounded_pass share is outside the strong oracles' reach.
	RefStatus map[string]int
	// DeterminismRuns counts the eval.Stream configurations compared.
	DeterminismRuns int
	// BackendChecks counts compiled-vs-interpreted comparisons (lockstep
	// simulator runs, monitor trace checks, full FPV verdicts).
	BackendChecks int
	// BatchChecks counts batched-vs-per-property FPV result comparisons
	// (oracle 5).
	BatchChecks int
	// ConeChecks counts cone-reduced-vs-full-design FPV comparisons
	// (oracle 6).
	ConeChecks int
	// SlicedChecks counts bit-sliced-vs-scalar FPV result comparisons
	// (oracle 7).
	SlicedChecks int
	// StaticChecks counts static-pass-vs-pure-search FPV comparisons
	// (oracle 8); StaticDischarged counts how many of those the static
	// side settled without any search.
	StaticChecks     int
	StaticDischarged int
	// StoreChecks counts disk-served-vs-store-free FPV comparisons
	// (oracle 9); StoreLoads counts the blobs the warm runs actually
	// served from disk — zero loads would mean the oracle compared two
	// in-memory runs and proved nothing about the store.
	StoreChecks int
	StoreLoads  int
	// SchedChecks counts the worker-pool stream comparisons (oracle
	// 10): 2-workers-vs-sequential, 4-workers-vs-sequential, and the
	// sharded 2-worker concatenation.
	SchedChecks int
	// FaultChecks counts the fault-tolerance comparisons (oracle 11):
	// retry-absorbed chaos vs the fault-free reference, the
	// continue-policy errored stream, and the resumed run with its
	// verify-call accounting.
	FaultChecks int
	// Disagreements holds every oracle violation (empty on a clean run).
	Disagreements []Disagreement
}

// OK reports whether the run found no disagreements.
func (r Report) OK() bool { return len(r.Disagreements) == 0 }

func (r Report) String() string {
	return fmt.Sprintf("dverify: %d scenarios, %d properties (%d exhaustive, %d cex replayed, verdicts %s), %d backend checks, %d batch checks, %d cone checks, %d sliced checks, %d static checks (%d discharged), %d store checks (%d disk loads), %d determinism runs, %d sched checks, %d fault checks, %d disagreements",
		r.Scenarios, r.Properties, r.Exhaustive, r.CEXs, r.refStatusString(), r.BackendChecks, r.BatchChecks, r.ConeChecks, r.SlicedChecks, r.StaticChecks, r.StaticDischarged, r.StoreChecks, r.StoreLoads, r.DeterminismRuns, r.SchedChecks, r.FaultChecks, len(r.Disagreements))
}

// refStatusString renders the verdict tally in a fixed order.
func (r Report) refStatusString() string {
	parts := make([]string, 0, 4)
	for _, k := range []string{"proven", "vacuous", "bounded_pass", "cex"} {
		if n := r.RefStatus[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Run executes the differential harness. The returned error reports
// harness-level failures only (cancellation, dump I/O); oracle
// disagreements are data, reported in the Report.
func Run(ctx context.Context, opt Options) (Report, error) {
	opt = opt.withDefaults()
	h := &harness{opt: opt}
	rng := rand.New(rand.NewSource(opt.Seed))
	report := Report{RefStatus: map[string]int{}}
	// Oracle 9 exercises a real on-disk store. It lives for the whole run
	// so shrink re-checks replay against the same blobs a full-size
	// scenario wrote.
	storeDir, err := os.MkdirTemp("", "dverify-store-")
	if err != nil {
		return report, fmt.Errorf("dverify: store dir: %w", err)
	}
	defer os.RemoveAll(storeDir)
	store, err := astore.Open(storeDir)
	if err != nil {
		return report, fmt.Errorf("dverify: store: %w", err)
	}
	h.store = store
	var corpus []bench.Design
	for i := 0; i < opt.Scenarios; i++ {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		spec := bench.RandomFuzzSpec(rng)
		propSeed := rng.Int63()
		res := h.checkScenario(ctx, spec, propSeed)
		report.Scenarios++
		report.Properties += res.properties
		report.Exhaustive += res.exhaustive
		report.CEXs += res.cexs
		report.BackendChecks += res.backend
		report.BatchChecks += res.batch
		report.ConeChecks += res.cone
		report.SlicedChecks += res.sliced
		report.StaticChecks += res.static
		report.StaticDischarged += res.staticDischarged
		report.StoreChecks += res.store
		report.StoreLoads += res.storeLoads
		for k, v := range res.refStatus {
			report.RefStatus[k] += v
		}
		for _, d := range res.disagreements {
			d = h.shrink(ctx, d, propSeed)
			// Dump files are numbered by the global disagreement count, not
			// the scenario index: one scenario can trip several properties,
			// and each reproduction must survive on disk.
			if path, err := h.dump(d, len(report.Disagreements)); err != nil {
				return report, err
			} else {
				d.DumpPath = path
			}
			report.Disagreements = append(report.Disagreements, d)
		}
		// The determinism corpus reuses the scenarios already generated,
		// capped so oracle 3 stays a bounded fraction of the run.
		if len(corpus) < 24 {
			corpus = append(corpus, spec.Build())
		}
	}
	if !opt.SkipDeterminism && len(corpus) > 0 {
		runs, ds, err := h.checkDeterminism(ctx, corpus)
		if err != nil {
			return report, err
		}
		report.DeterminismRuns = runs
		report.Disagreements = append(report.Disagreements, ds...)
		checks, sds, err := h.checkSched(ctx, corpus)
		if err != nil {
			return report, err
		}
		report.SchedChecks = checks
		report.Disagreements = append(report.Disagreements, sds...)
		fchecks, fds, err := h.checkFault(ctx, corpus)
		if err != nil {
			return report, err
		}
		report.FaultChecks = fchecks
		report.Disagreements = append(report.Disagreements, fds...)
	}
	return report, nil
}
