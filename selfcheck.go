package assertionbench

import (
	"context"

	"assertionbench/internal/dverify"
)

// SelfCheckOptions configure the differential self-check harness.
type SelfCheckOptions struct {
	// Scenarios is the number of seeded random designs generated and
	// checked (default 50).
	Scenarios int
	// PropsPerDesign is the number of random SVA properties cross-checked
	// per design (default 3).
	PropsPerDesign int
	// Seed makes the run reproducible; a (Seed, Scenarios) pair fully
	// determines every design, property and verdict. Default 1.
	Seed int64
	// DumpDir receives .v/.sva reproduction pairs for disagreements
	// ("" disables dumping).
	DumpDir string
	// Short trims the per-design budgets (fewer traces, shorter shrink)
	// for CI smoke runs.
	Short bool
}

// SelfCheckReport summarizes a self-check run.
type SelfCheckReport struct {
	// Scenarios and Properties count what was generated and checked.
	Scenarios  int
	Properties int
	// Exhaustive counts properties whose reference verdict came from a
	// fully closed (exhaustive) FPV search; CEXs counts counter-examples
	// replayed and confirmed on the event-driven simulator.
	Exhaustive int
	CEXs       int
	// Verdicts tallies the reference engine's verdicts by status name
	// (proven/vacuous/bounded_pass/cex) — context for Exhaustive: cex
	// verdicts are definitive and replay-checked, so only the
	// bounded_pass share sits outside the strong oracles' reach.
	Verdicts map[string]int
	// DeterminismRuns counts the eval stream configurations compared.
	DeterminismRuns int
	// BackendChecks counts compiled-vs-interpreted execution comparisons
	// (lockstep simulator runs, monitor trace checks, FPV verdicts).
	BackendChecks int
	// BatchChecks counts batched-vs-per-property FPV result comparisons
	// (the shared-reachability verifier against the reference search).
	BatchChecks int
	// ConeChecks counts cone-of-influence comparisons (the reduced
	// search against the full-design reference).
	ConeChecks int
	// SlicedChecks counts bit-sliced-vs-scalar FPV result comparisons
	// (the 64-way bounded exploration against the scalar loops).
	SlicedChecks int
	// StaticChecks counts static-pass-vs-pure-search FPV comparisons (the
	// abstract-interpretation pre-verification against the search with the
	// pass disabled); StaticDischarged counts how many of those the static
	// side settled without any search.
	StaticChecks     int
	StaticDischarged int
	// StoreChecks counts disk-served-vs-store-free FPV comparisons (the
	// persistent artifact store's blobs read back by a cold cache against
	// the search that never touched disk); StoreLoads counts the blobs
	// those warm runs actually served from disk.
	StoreChecks int
	StoreLoads  int
	// SchedChecks counts worker-pool stream comparisons (2- and 4-worker
	// pools against the sequential reference, plus the sharded 2-worker
	// concatenation).
	SchedChecks int
	// FaultChecks counts fault-tolerance comparisons (deterministic
	// injected faults absorbed by retries, the continue policy's errored
	// stream, and resume convergence with verify-call accounting against
	// the fault-free sequential reference).
	FaultChecks int
	// Disagreements lists every oracle violation, shrunk to a minimal
	// reproduction. Empty on a healthy build.
	Disagreements []string
}

// OK reports whether the self-check found no disagreements.
func (r SelfCheckReport) OK() bool { return len(r.Disagreements) == 0 }

// SelfCheck runs the differential verification harness: seeded random
// well-formed designs and SVA properties are cross-checked through
// eleven oracles — print/parse round-trip netlist identity, agreement between
// the FPV engine, the SVA monitor and the event-driven simulator
// (including counter-example replay and bounded-vs-exhaustive
// consistency), byte-identical determinism of sequential, parallel and
// sharded evaluation streams, bit-identical agreement of the compiled
// register-machine backend with the tree-walking interpreter (lockstep
// simulation, monitor trace checks, full FPV verdicts), bit-identical
// agreement of the batched shared-reachability verifier with the
// per-property reference search (full result identity plus independent
// counter-example replay), semantic agreement of cone-of-influence-
// reduced FPV with the full-design search (exhaustive verdicts coincide,
// bounded findings never contradict them, counter-examples from either
// side replay on the full design), bit-identical agreement of the
// 64-way bit-sliced bounded exploration with the scalar reference loops,
// and semantic agreement of the static pre-verification pass (abstract-
// interpretation discharge plus constant-swept cones) with the
// pure-search reference, statically fabricated counter-examples replayed
// like searched ones, and bit-identical agreement of FPV served from the
// persistent artifact store — compiled programs and reachability graphs
// round-tripped through disk blobs and read back by a cold cache — with
// the store-free search, and byte-identical agreement of 2- and 4-worker
// evaluation pools with the sequential evaluation walk, sharded
// concatenation included, and
// convergence of the fault-tolerance layer — retries absorbing bounded
// injected faults, the continue policy surfacing a permanent failure as
// one errored outcome, and a resumed run served from the run manifest —
// to the fault-free sequential stream.
// The returned error covers harness failures (cancellation, dump I/O)
// only; oracle violations are reported as data in the report.
func SelfCheck(ctx context.Context, opt SelfCheckOptions) (SelfCheckReport, error) {
	iopt := dverify.Options{
		Scenarios:      opt.Scenarios,
		PropsPerDesign: opt.PropsPerDesign,
		Seed:           opt.Seed,
		DumpDir:        opt.DumpDir,
	}
	if opt.Short {
		iopt.TraceCount = 1
		iopt.TraceCycles = 24
		iopt.MaxShrinkSteps = 8
		if iopt.Scenarios == 0 {
			iopt.Scenarios = 20
		}
	}
	rep, err := dverify.Run(ctx, iopt)
	out := SelfCheckReport{
		Scenarios:        rep.Scenarios,
		Properties:       rep.Properties,
		Exhaustive:       rep.Exhaustive,
		CEXs:             rep.CEXs,
		Verdicts:         rep.RefStatus,
		DeterminismRuns:  rep.DeterminismRuns,
		BackendChecks:    rep.BackendChecks,
		BatchChecks:      rep.BatchChecks,
		ConeChecks:       rep.ConeChecks,
		SlicedChecks:     rep.SlicedChecks,
		StaticChecks:     rep.StaticChecks,
		StaticDischarged: rep.StaticDischarged,
		StoreChecks:      rep.StoreChecks,
		StoreLoads:       rep.StoreLoads,
		SchedChecks:      rep.SchedChecks,
		FaultChecks:      rep.FaultChecks,
	}
	for _, d := range rep.Disagreements {
		out.Disagreements = append(out.Disagreements, d.String())
	}
	return out, err
}
