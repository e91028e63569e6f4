// Command fuzzcheck runs the differential verification harness: seeded
// random well-formed designs and SVA properties cross-checked through
// eleven oracles (print/parse round-trip, sim-vs-monitor-vs-FPV
// agreement with counter-example replay, sequential/parallel/sharded
// stream determinism, compiled-vs-interpreted backend identity,
// batched-vs-per-property FPV identity, cone-reduced-vs-full-design
// semantic agreement, bit-sliced-vs-scalar FPV identity,
// static-pass-vs-pure-search semantic agreement,
// disk-served-vs-store-free FPV identity through the persistent
// artifact store, completion-order independence of the concurrent
// evaluation stream, and fault-tolerance convergence — injected faults
// absorbed by retries, surfaced by the continue policy, and healed by
// a manifest resume — against the fault-free stream). A clean
// exit means every generated scenario agreed AND every oracle actually
// ran — an oracle that checked nothing is reported and fails the run,
// so a refactor cannot silently disconnect a cross-check;
// disagreements are shrunk, dumped as .v/.sva reproduction pairs, and
// fail the run. Ctrl-C cancels gracefully.
//
// Usage:
//
//	fuzzcheck -n 200 -seed 1
//	fuzzcheck -n 50 -seed 7 -props 5 -dump ./fuzz-crashes
//
// Exit status is 0 when every oracle ran and agreed, 1 on disagreement,
// an idle oracle, or interruption, 2 on usage or harness errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"assertionbench"
	"assertionbench/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fuzzcheck: ")
	n := flag.Int("n", 200, "number of generated design scenarios")
	seed := flag.Int64("seed", 1, "generation seed (a run is a pure function of -n/-seed/-props)")
	props := flag.Int("props", 3, "random properties per design")
	dump := flag.String("dump", "", "directory for .v/.sva reproduction pairs on disagreement")
	short := flag.Bool("short", false, "trimmed per-design budgets (CI smoke mode)")
	flag.Parse()
	if *n <= 0 {
		cliutil.Fatalf("-n %d: scenario count must be positive", *n)
	}
	if *props <= 0 {
		cliutil.Fatalf("-props %d: property count must be positive", *props)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report, err := assertionbench.SelfCheck(ctx, assertionbench.SelfCheckOptions{
		Scenarios:      *n,
		PropsPerDesign: *props,
		Seed:           *seed,
		DumpDir:        *dump,
		Short:          *short,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatalf("interrupted after %d of %d scenarios", report.Scenarios, *n)
		}
		cliutil.Fatal(err)
	}
	fmt.Printf("scenarios:        %d (seed %d)\n", report.Scenarios, *seed)
	fmt.Printf("properties:       %d (%d exhaustive, %d counter-examples replayed)\n",
		report.Properties, report.Exhaustive, report.CEXs)
	fmt.Print("verdicts:        ")
	for _, k := range []string{"proven", "vacuous", "bounded_pass", "cex"} {
		if n := report.Verdicts[k]; n > 0 {
			fmt.Printf(" %s=%d", k, n)
		}
	}
	fmt.Println()
	fmt.Printf("backend checks:   %d (compiled vs interpreted)\n", report.BackendChecks)
	fmt.Printf("batch checks:     %d (shared-graph batched vs per-property)\n", report.BatchChecks)
	fmt.Printf("cone checks:      %d (cone-reduced vs full-design)\n", report.ConeChecks)
	fmt.Printf("sliced checks:    %d (64-way bit-sliced vs scalar)\n", report.SlicedChecks)
	fmt.Printf("static checks:    %d (static pass vs pure search, %d discharged without search)\n",
		report.StaticChecks, report.StaticDischarged)
	fmt.Printf("store checks:     %d (disk-served vs store-free, %d blobs served from disk)\n",
		report.StoreChecks, report.StoreLoads)
	fmt.Printf("determinism runs: %d\n", report.DeterminismRuns)
	fmt.Printf("sched checks:     %d (2/4 workers vs sequential, sharded concat)\n", report.SchedChecks)
	fmt.Printf("fault checks:     %d (injected faults: retry absorption, continue policy, manifest resume)\n", report.FaultChecks)
	// A silent zero is as bad as a disagreement: it means an oracle was
	// disconnected, not that the code under test is healthy.
	idle := 0
	for _, o := range []struct {
		name string
		n    int
	}{
		{"roundtrip/agreement (properties)", report.Properties},
		{"backend", report.BackendChecks},
		{"batch", report.BatchChecks},
		{"cone", report.ConeChecks},
		{"sliced", report.SlicedChecks},
		{"static", report.StaticChecks},
		{"store", report.StoreChecks},
		{"store disk loads", report.StoreLoads},
		{"determinism", report.DeterminismRuns},
		{"sched", report.SchedChecks},
		{"fault", report.FaultChecks},
	} {
		if o.n == 0 {
			fmt.Printf("oracle %s ran 0 checks\n", o.name)
			idle++
		}
	}
	if report.OK() {
		if idle > 0 {
			os.Exit(1)
		}
		fmt.Println("all oracles agree")
		return
	}
	fmt.Printf("\n%d DISAGREEMENT(S):\n", len(report.Disagreements))
	for _, d := range report.Disagreements {
		fmt.Println("  " + d)
	}
	os.Exit(1)
}
