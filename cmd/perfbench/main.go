// Command perfbench measures the static pre-verification pass against
// pure search, the batched shared-reachability verifier against
// per-property search, the compiled execution backend against the
// tree-walking reference interpreter, and the cone-of-influence +
// bit-sliced exploration against the full-design scalar engine,
// emitting a machine-readable
// report (BENCH_pr9.json in the repository root records the checked-in
// numbers):
//
//   - sim: simulator ns/cycle on a spread of corpus designs;
//   - fpv: the FPV-bound full-corpus pass — formal verification of every
//     (pre-generated, corrected) candidate assertion over the whole
//     corpus on one engine, reported as verdicts/second; generation and
//     correction are excluded so the section times verification alone.
//     Batched columns cover the cold pass (graphs built inside the timed
//     region) and the warm pass (populated graph cache);
//   - eval_full_corpus: the end-to-end evaluation pass (generation,
//     correction, verification) at the default worker-pool size, i.e.
//     the wall time a user sees for one (model, shot) sweep, batched and
//     per-property.
//
// Usage:
//
//	perfbench -baseline-ms 175.24 -out BENCH_pr9.json
//	perfbench -quick -min-batch-speedup 1.0   # CI smoke + regression gate
//	perfbench -quick -min-coi-speedup 1.0     # cone+sliced regression gate
//	perfbench -quick -min-static-speedup 1.0  # static pass no-regression gate
//	perfbench -quick -min-disk-speedup 1.0    # persistent-store warm-start gate
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"assertionbench/internal/astore"
	"assertionbench/internal/bench"
	"assertionbench/internal/corrector"
	"assertionbench/internal/eval"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
	"assertionbench/internal/sim"
	"assertionbench/internal/verilog"
	"assertionbench/internal/vstatic"
)

type simRow struct {
	Design             string  `json:"design"`
	Cycles             int     `json:"cycles"`
	InterpNsPerCycle   float64 `json:"interp_ns_per_cycle"`
	CompiledNsPerCycle float64 `json:"compiled_ns_per_cycle"`
	Speedup            float64 `json:"speedup"`
}

type fpvSection struct {
	Designs                int     `json:"designs"`
	Verdicts               int     `json:"verdicts"`
	InterpMs               float64 `json:"interp_ms"`
	CompiledMs             float64 `json:"compiled_ms"`
	InterpVerdictsPerSec   float64 `json:"interp_verdicts_per_sec"`
	CompiledVerdictsPerSec float64 `json:"compiled_verdicts_per_sec"`
	Speedup                float64 `json:"speedup"`
	// Batched columns: the shared-reachability batched verifier on the
	// compiled backend. BatchedMs rebuilds every graph within the timed
	// region (a cold, single-sweep pass); BatchedWarmMs reuses a
	// populated graph cache (what the 2nd..Nth run of a model/shot sweep
	// sees). BatchSpeedup is per-property compiled / batched cold.
	BatchedMs             float64 `json:"batched_ms"`
	BatchedWarmMs         float64 `json:"batched_warm_ms"`
	BatchedVerdictsPerSec float64 `json:"batched_verdicts_per_sec"`
	BatchSpeedup          float64 `json:"batch_speedup"`
	// Cone/sliced attribution columns: the same batched cold pass with
	// the cone-of-influence reduction and the 64-way bit-sliced
	// exploration toggled independently. LegacyMs is cone, slices and the
	// static pass all off (the PR-5 engine configuration); ConeOnlyMs and
	// SlicedOnlyMs enable exactly one; BatchedMs above is the production
	// default (cone, slices and static all on).
	// CoiSpeedup is LegacyMs / BatchedMs — what the two optimizations
	// buy together on top of batching. BatchedDesignP95Ms is the 95th
	// percentile single-design latency inside the production cold pass
	// (tail designs are where cone reduction matters most).
	LegacyMs           float64 `json:"legacy_ms"`
	ConeOnlyMs         float64 `json:"cone_only_ms"`
	SlicedOnlyMs       float64 `json:"sliced_only_ms"`
	CoiSpeedup         float64 `json:"coi_speedup"`
	BatchedDesignP95Ms float64 `json:"batched_design_p95_ms"`
	// Static pre-verification columns: StaticOffMs is the production
	// batched cold pass with the static pass disabled; StaticDischarged
	// counts the properties the static pass settled without any search
	// (abstract-interpretation proof, vacuity, or replayed CEX) in the
	// production pass; StaticSpeedup is static_off_ms / batched_ms — what
	// the pass buys end to end (>= 1.0 means auto is no slower than off);
	// StaticAnalysisMs is the summed per-design ternary fixpoint latency,
	// the up-front cost FPV pays before any discharge can happen.
	StaticOffMs      float64 `json:"static_off_ms"`
	StaticDischarged int     `json:"static_discharged"`
	StaticSpeedup    float64 `json:"static_speedup"`
	StaticAnalysisMs float64 `json:"static_analysis_ms"`
	// Persistent artifact-store columns: DiskColdMs runs the production
	// batched pass through a fresh memory cache over an empty store
	// directory (every graph is built inside the timed region and written
	// behind to disk); DiskWarmMs runs it through another fresh memory
	// cache over the populated store, so every graph it serves is a disk
	// read — the "new process, warm disk" start -cache-dir exists for.
	// DiskSpeedup is cold/warm.
	DiskColdMs  float64 `json:"disk_cold_ms"`
	DiskWarmMs  float64 `json:"disk_warm_ms"`
	DiskSpeedup float64 `json:"disk_speedup"`
	// Optional externally measured baseline of the same pass on the
	// previous PR's engine (see -baseline-ms and EXPERIMENTS.md);
	// SpeedupVsBaseline compares it to the batched cold pass.
	BaselineMs        float64 `json:"baseline_ms,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// NOTE: unlike BENCH_pr4.json's identically named fields (measured
// per-property, the only mode that existed), interp_ms and compiled_ms
// here run the DEFAULT configuration — batching on for both backends —
// so speedup isolates the backend at the current default. The
// per-property compiled time is carried explicitly in per_property_ms;
// compare that against BENCH_pr4's compiled_ms for the cross-PR
// trajectory.
type evalSection struct {
	Workers    int     `json:"workers"`
	InterpMs   float64 `json:"interp_ms"`
	CompiledMs float64 `json:"compiled_ms"`
	Speedup    float64 `json:"speedup"`
	// PerPropertyMs is the compiled backend with batching forced off;
	// BatchSpeedup relates it to CompiledMs (the batched default).
	PerPropertyMs float64 `json:"per_property_ms"`
	BatchSpeedup  float64 `json:"batch_speedup"`
}

type report struct {
	Description string `json:"description"`
	Host        struct {
		GoOS   string `json:"goos"`
		GoArch string `json:"goarch"`
		NumCPU int    `json:"num_cpu"`
	} `json:"host"`
	Quick            bool        `json:"quick"`
	Sim              []simRow    `json:"sim"`
	SimMedianSpeedup float64     `json:"sim_median_speedup"`
	FPV              fpvSection  `json:"fpv"`
	EvalFullCorpus   evalSection `json:"eval_full_corpus"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	quick := flag.Bool("quick", false, "CI smoke sizes (fewer cycles, truncated corpus)")
	seed := flag.Int64("seed", 1, "workload seed")
	baselineMs := flag.Float64("baseline-ms", 0, "externally measured previous-engine time for the fpv pass, recorded alongside the A/B numbers")
	minBatchSpeedup := flag.Float64("min-batch-speedup", 0, "exit non-zero if the batched fpv pass is below this speedup vs per-property (CI regression gate; 0 disables)")
	minCoiSpeedup := flag.Float64("min-coi-speedup", 0, "exit non-zero if the cone+sliced fpv pass is below this speedup vs the legacy full-design scalar pass (CI regression gate; 0 disables)")
	minStaticSpeedup := flag.Float64("min-static-speedup", 0, "exit non-zero if the production pass with the static pre-verification pass is below this speedup vs the same pass with it disabled (CI no-regression gate; 0 disables)")
	minStaticDischarged := flag.Float64("min-static-discharged", 0, "exit non-zero if fewer than this fraction of corpus properties discharge statically (0 disables)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store directory for the disk warm-start columns (default: a private temp dir, removed on exit)")
	minDiskSpeedup := flag.Float64("min-disk-speedup", 0, "exit non-zero if the disk-warm fpv pass is below this speedup vs the disk-cold pass (CI warm-start gate; 0 disables)")
	flag.Parse()

	rep := report{Description: "persistent artifact store (disk-warm vs disk-cold FPV), static pre-verification vs pure search, cone-of-influence reduction and 64-way bit-sliced exploration vs the full-design scalar engine, batched FPV vs per-property search, compiled backend vs interpreter", Quick: *quick}
	rep.Host.GoOS, rep.Host.GoArch, rep.Host.NumCPU = runtime.GOOS, runtime.GOARCH, runtime.NumCPU()

	corpus := bench.TestCorpus()
	simCycles, evalDesigns := 200000, 0
	if *quick {
		simCycles, evalDesigns = 5000, 12
	}

	// --- sim ns/cycle over a spread of designs (small comb, mid seq,
	// the CAN CRC hot design, and the largest-LoC entry). ---
	picks := map[string]bool{corpus[23].Name: true}
	byLoC := append([]bench.Design(nil), corpus...)
	sort.Slice(byLoC, func(i, j int) bool { return byLoC[i].LoC > byLoC[j].LoC })
	picks[byLoC[0].Name] = true
	picks[byLoC[len(byLoC)/2].Name] = true
	picks[byLoC[len(byLoC)-1].Name] = true
	for _, d := range corpus {
		if !picks[d.Name] {
			continue
		}
		nl, err := verilog.ElaborateSource(d.Source, "")
		if err != nil {
			log.Fatalf("%s: %v", d.Name, err)
		}
		// Minimum of five interleaved measurements per backend: the work
		// is deterministic, so the minimum is the throttle-free estimate
		// on shared machines (the CI and dev containers burst-throttle
		// CPU, which stretches wall time by whole runs at a time).
		interp, compiled := math.Inf(1), math.Inf(1)
		for r := 0; r < 5; r++ {
			interp = math.Min(interp, timeSim(sim.New(nl), nl, simCycles, *seed))
			compiled = math.Min(compiled, timeSim(sim.NewCompiled(nl), nl, simCycles, *seed))
		}
		rep.Sim = append(rep.Sim, simRow{
			Design:             d.Name,
			Cycles:             simCycles,
			InterpNsPerCycle:   interp,
			CompiledNsPerCycle: compiled,
			Speedup:            round2(interp / compiled),
		})
		log.Printf("sim %-22s interp %7.1f ns/cycle  compiled %7.1f ns/cycle  (%.2fx)",
			d.Name, interp, compiled, interp/compiled)
	}
	speeds := make([]float64, len(rep.Sim))
	for i, r := range rep.Sim {
		speeds[i] = r.Speedup
	}
	sort.Float64s(speeds)
	rep.SimMedianSpeedup = speeds[len(speeds)/2]

	// --- FPV-bound full-corpus pass: pre-generate and correct every
	// candidate assertion (backend-independent), then time verification
	// alone. Verdicts are identical across backends by construction
	// (dverify oracle 4). ---
	gen := eval.NewModelGenerator(llm.GPT4o())
	icl := trainExamples()
	type vjob struct {
		d     bench.Design
		lines []string
	}
	var jobs []vjob
	verdicts := 0
	nDesigns := len(corpus)
	if evalDesigns > 0 && evalDesigns < nDesigns {
		nDesigns = evalDesigns
	}
	for gi, d := range corpus[:nDesigns] {
		nl, err := bench.Elaborate(d)
		if err != nil {
			log.Fatalf("%s: %v", d.Name, err)
		}
		out, err := gen.Generate(context.Background(), d, icl, eval.GenOptions{
			Shots: 5, Seed: *seed*1000003 + int64(gi)*7919 + 5})
		if err != nil {
			log.Fatalf("%s: %v", d.Name, err)
		}
		fixed, _ := corrector.New(nl).CorrectAll(out.Assertions)
		jobs = append(jobs, vjob{d, fixed})
		verdicts += len(fixed)
	}
	verifyRun := func(backend string) time.Duration {
		eng := fpv.NewEngine()
		opt := fpv.Options{MaxProductStates: 3000, MaxInputBits: 8, MaxInputSamples: 12,
			RandomRuns: 128, RandomDepth: 64, Seed: *seed, Backend: backend, Batch: fpv.BatchOff}
		start := time.Now()
		for _, j := range jobs {
			nl, _ := bench.Elaborate(j.d)
			for _, line := range j.lines {
				eng.VerifySource(context.Background(), nl, line, opt)
			}
		}
		return time.Since(start)
	}
	// The batched pass: one engine, each design's candidate list through
	// the shared reachability graph. warm reuses a populated cache (what
	// later runs of a sweep see); cold rebuilds every graph inside the
	// timed region. cone/slices select the engine configuration; the
	// perDesign slice, when non-nil, accumulates the per-design minimum
	// wall time for the tail-latency column.
	batchCache := &fpv.GraphCache{}
	staticDischarged := 0
	batchRun := func(warm bool, cone, slices, static string, perDesign []time.Duration) time.Duration {
		eng := fpv.NewEngine()
		eng.Graphs = batchCache
		if !warm {
			batchCache.Purge()
		}
		opt := fpv.Options{MaxProductStates: 3000, MaxInputBits: 8, MaxInputSamples: 12,
			RandomRuns: 128, RandomDepth: 64, Seed: *seed, Backend: fpv.BackendCompiled,
			Cone: cone, Slices: slices, Static: static}
		nStatic := 0
		start := time.Now()
		for ji, j := range jobs {
			nl, _ := bench.Elaborate(j.d)
			ds := time.Now()
			for _, r := range eng.VerifyAll(context.Background(), nl, j.lines, opt) {
				if r.Static {
					nStatic++
				}
			}
			if perDesign != nil {
				perDesign[ji] = min(perDesign[ji], time.Since(ds))
			}
		}
		if static != fpv.StaticOff {
			staticDischarged = nStatic
		}
		return time.Since(start)
	}
	// The disk-tier pass: a fresh engine and a fresh memory cache per
	// repetition simulate a new process attaching -cache-dir. A cold
	// repetition starts from an empty store directory and writes every
	// exploration behind; a warm one reads every graph back from disk.
	diskDir := *cacheDir
	if diskDir == "" {
		d, err := os.MkdirTemp("", "perfbench-store-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(d)
		diskDir = d
	}
	diskRun := func(warm bool) time.Duration {
		if !warm {
			if err := os.RemoveAll(diskDir); err != nil {
				log.Fatal(err)
			}
		}
		store, err := astore.Open(diskDir)
		if err != nil {
			log.Fatal(err)
		}
		eng := fpv.NewEngine()
		cache := &fpv.GraphCache{}
		cache.SetDisk(store)
		eng.Graphs = cache
		opt := fpv.Options{MaxProductStates: 3000, MaxInputBits: 8, MaxInputSamples: 12,
			RandomRuns: 128, RandomDepth: 64, Seed: *seed, Backend: fpv.BackendCompiled}
		start := time.Now()
		for _, j := range jobs {
			nl, _ := bench.Elaborate(j.d)
			eng.VerifyAll(context.Background(), nl, j.lines, opt)
		}
		return time.Since(start)
	}
	// The ternary fixpoint alone, forced cold per design (vstatic.For
	// memoizes on the interned netlist, so time the unmemoized entry).
	staticAnalysisRun := func() time.Duration {
		start := time.Now()
		for _, j := range jobs {
			nl, _ := bench.Elaborate(j.d)
			vstatic.Analyze(nl)
		}
		return time.Since(start)
	}
	verifyRun(fpv.BackendCompiled) // warm caches and lowerings
	perDesign := make([]time.Duration, len(jobs))
	for i := range perDesign {
		perDesign[i] = 1 << 62
	}
	iDur, cDur := time.Duration(1<<62), time.Duration(1<<62)
	bDur, wDur := time.Duration(1<<62), time.Duration(1<<62)
	lgDur, coDur, soDur := time.Duration(1<<62), time.Duration(1<<62), time.Duration(1<<62)
	sfDur, saDur := time.Duration(1<<62), time.Duration(1<<62)
	dcDur, dwDur := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < 7; r++ {
		iDur = min(iDur, verifyRun(fpv.BackendInterp))
		cDur = min(cDur, verifyRun(fpv.BackendCompiled))
		lgDur = min(lgDur, batchRun(false, fpv.ConeOff, fpv.SlicesOff, fpv.StaticOff, nil))
		coDur = min(coDur, batchRun(false, fpv.ConeAuto, fpv.SlicesOff, fpv.StaticAuto, nil))
		soDur = min(soDur, batchRun(false, fpv.ConeOff, fpv.SlicesAuto, fpv.StaticAuto, nil))
		sfDur = min(sfDur, batchRun(false, fpv.ConeAuto, fpv.SlicesAuto, fpv.StaticOff, nil))
		bDur = min(bDur, batchRun(false, fpv.ConeAuto, fpv.SlicesAuto, fpv.StaticAuto, perDesign))
		wDur = min(wDur, batchRun(true, fpv.ConeAuto, fpv.SlicesAuto, fpv.StaticAuto, nil))
		saDur = min(saDur, staticAnalysisRun())
		dcDur = min(dcDur, diskRun(false))
		dwDur = min(dwDur, diskRun(true))
	}
	sortedPD := append([]time.Duration(nil), perDesign...)
	sort.Slice(sortedPD, func(i, j int) bool { return sortedPD[i] < sortedPD[j] })
	p95 := sortedPD[(len(sortedPD)*95+99)/100-1]
	rep.FPV = fpvSection{
		Designs:                nDesigns,
		Verdicts:               verdicts,
		InterpMs:               ms(iDur),
		CompiledMs:             ms(cDur),
		InterpVerdictsPerSec:   round2(float64(verdicts) / iDur.Seconds()),
		CompiledVerdictsPerSec: round2(float64(verdicts) / cDur.Seconds()),
		Speedup:                round2(float64(iDur) / float64(cDur)),
		BatchedMs:              ms(bDur),
		BatchedWarmMs:          ms(wDur),
		BatchedVerdictsPerSec:  round2(float64(verdicts) / bDur.Seconds()),
		BatchSpeedup:           round2(float64(cDur) / float64(bDur)),
		LegacyMs:               ms(lgDur),
		ConeOnlyMs:             ms(coDur),
		SlicedOnlyMs:           ms(soDur),
		CoiSpeedup:             round2(float64(lgDur) / float64(bDur)),
		BatchedDesignP95Ms:     ms(p95),
		StaticOffMs:            ms(sfDur),
		StaticDischarged:       staticDischarged,
		StaticSpeedup:          round2(float64(sfDur) / float64(bDur)),
		StaticAnalysisMs:       ms(saDur),
		DiskColdMs:             ms(dcDur),
		DiskWarmMs:             ms(dwDur),
		DiskSpeedup:            round2(float64(dcDur) / float64(dwDur)),
	}
	if *baselineMs > 0 {
		rep.FPV.BaselineMs = *baselineMs
		rep.FPV.SpeedupVsBaseline = round2(*baselineMs / ms(bDur))
	}
	log.Printf("fpv  %d verdicts: interp %.0f ms (%.0f/s), compiled per-property %.0f ms (%.0f/s), batched %.0f ms cold / %.0f ms warm (%.0f/s)  (batch %.2fx)",
		verdicts, ms(iDur), float64(verdicts)/iDur.Seconds(), ms(cDur), float64(verdicts)/cDur.Seconds(),
		ms(bDur), ms(wDur), float64(verdicts)/bDur.Seconds(), float64(cDur)/float64(bDur))
	log.Printf("fpv  attribution: legacy %.0f ms, cone-only %.0f ms, sliced-only %.0f ms, cone+sliced %.0f ms  (coi %.2fx, design p95 %.2f ms)",
		ms(lgDur), ms(coDur), ms(soDur), ms(bDur), float64(lgDur)/float64(bDur), ms(p95))
	log.Printf("fpv  static: %d/%d discharged without search, off %.0f ms vs auto %.0f ms (%.2fx), fixpoint %.2f ms",
		staticDischarged, verdicts, ms(sfDur), ms(bDur), float64(sfDur)/float64(bDur), ms(saDur))
	log.Printf("fpv  store: disk-cold %.0f ms vs disk-warm %.0f ms (%.2fx) over %s",
		ms(dcDur), ms(dwDur), float64(dcDur)/float64(dwDur), diskDir)

	// --- end-to-end evaluation pass (generation + correction + FPV). ---
	evalRun := func(backend, batch string, workers int) (time.Duration, int) {
		// Fresh graph cache per run so the batched e2e number is a cold
		// sweep, not an artifact of the previous repetition.
		bench.DefaultElab.Graphs().Purge()
		opt := eval.RunOptions{
			Shots: 5, Seed: *seed, UseCorrector: true, Workers: workers,
			MaxDesigns: evalDesigns,
			FPV:        fpv.Options{Backend: backend, Batch: batch},
		}
		start := time.Now()
		res, err := eval.Run(context.Background(), eval.NewModelGenerator(llm.GPT4o()), icl, corpus, opt)
		if err != nil {
			log.Fatalf("eval (%s): %v", backend, err)
		}
		n := 0
		for _, d := range res.Designs {
			n += len(d.Verdicts)
		}
		return time.Since(start), n
	}

	// --- default-worker wall time (what one sweep costs end to end). ---
	const evalReps = 5
	var is, cs, ps []time.Duration
	for r := 0; r < evalReps; r++ {
		d, _ := evalRun(fpv.BackendInterp, fpv.BatchAuto, 0)
		is = append(is, d)
		d, _ = evalRun(fpv.BackendCompiled, fpv.BatchAuto, 0)
		cs = append(cs, d)
		d, _ = evalRun(fpv.BackendCompiled, fpv.BatchOff, 0)
		ps = append(ps, d)
	}
	ipDur, cpDur, ppDur := median(is), median(cs), median(ps)
	rep.EvalFullCorpus = evalSection{
		Workers:       runtime.GOMAXPROCS(0),
		InterpMs:      ms(ipDur),
		CompiledMs:    ms(cpDur),
		Speedup:       round2(float64(ipDur) / float64(cpDur)),
		PerPropertyMs: ms(ppDur),
		BatchSpeedup:  round2(float64(ppDur) / float64(cpDur)),
	}
	log.Printf("eval full corpus (workers=%d): interp %.0f ms, compiled %.0f ms, per-property %.0f ms  (batch %.2fx)",
		rep.EvalFullCorpus.Workers, ms(ipDur), ms(cpDur), ms(ppDur), float64(ppDur)/float64(cpDur))

	enc := json.NewEncoder(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Printf("wrote %s\n", *out)
	}
	if *minBatchSpeedup > 0 && rep.FPV.BatchSpeedup < *minBatchSpeedup {
		log.Fatalf("batched fpv pass regressed: %.2fx vs per-property, want >= %.2fx",
			rep.FPV.BatchSpeedup, *minBatchSpeedup)
	}
	if *minCoiSpeedup > 0 && rep.FPV.CoiSpeedup < *minCoiSpeedup {
		log.Fatalf("cone+sliced fpv pass regressed: %.2fx vs legacy full-design scalar, want >= %.2fx",
			rep.FPV.CoiSpeedup, *minCoiSpeedup)
	}
	if *minStaticSpeedup > 0 && rep.FPV.StaticSpeedup < *minStaticSpeedup {
		log.Fatalf("static pre-verification regressed the fpv pass: %.2fx vs static-off, want >= %.2fx",
			rep.FPV.StaticSpeedup, *minStaticSpeedup)
	}
	if *minStaticDischarged > 0 && float64(rep.FPV.StaticDischarged) < *minStaticDischarged*float64(rep.FPV.Verdicts) {
		log.Fatalf("static discharge rate too low: %d of %d properties (want >= %.0f%%)",
			rep.FPV.StaticDischarged, rep.FPV.Verdicts, *minStaticDischarged*100)
	}
	if *minDiskSpeedup > 0 && rep.FPV.DiskSpeedup < *minDiskSpeedup {
		log.Fatalf("persistent-store warm start regressed: %.2fx vs disk-cold, want >= %.2fx",
			rep.FPV.DiskSpeedup, *minDiskSpeedup)
	}
}

// timeSim measures ns/cycle of random-stimulus stepping.
func timeSim(s *sim.Simulator, nl *verilog.Netlist, cycles int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]uint64, 64)
	for i := range vecs {
		vecs[i] = sim.RandomInputs(nl, rng)
	}
	start := time.Now()
	for c := 0; c < cycles; c++ {
		_ = s.SetInputs(vecs[c&63])
		s.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(cycles)
}

// trainExamples builds the fixed in-context examples without the mining
// pass (assertions verified in the corpus tests), keeping perfbench's
// timed region to generation + correction + FPV.
func trainExamples() []llm.Example {
	var icl []llm.Example
	for _, d := range bench.TrainDesigns() {
		icl = append(icl, llm.Example{
			Name:   d.Name,
			Source: d.Source,
			Assertions: []string{
				"rst == 1 |=> gnt_ == 0;",
				"req1 == 1 && req2 == 0 |-> gnt1 == 1;",
				"gnt2 == 1 |-> req2 == 1;",
				"sum == a ^ b;",
				"cout == (a & b);",
			},
		})
	}
	return icl
}

func ms(d time.Duration) float64 { return round2(float64(d.Microseconds()) / 1000) }

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// median of a sample set: the parallel sections use it instead of the
// minimum, where the minimum would overstate scheduler luck. (The serial
// sections take tightly alternating minimums instead: the workloads are
// deterministic, so the minimum estimates throttle-free cost on shared
// machines whose CPU quota stretches wall time by whole runs at a time.)
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
