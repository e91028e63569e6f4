// Command e2ebench is the repository benchmark: it runs one workload of
// the assertion-generation pipeline (generate, correct, statically
// analyse and formally verify), checks its verdicts, and prints every
// metric by name with its unit. BENCHMARK.json at the repository root
// lists the workloads and metrics; README.md in this directory explains
// them.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload cots-grid --seed 1 --seconds 10 --trace 0
//
// The first line of standard output is the host stamp; results from
// different hosts are not comparable. The last line is one JSON object
// with the keys correct, attempted, failed and metrics. --trace 0
// reports the end-to-end metrics from untraced repetitions; --trace 1
// reports the per-layer metrics from traced repetitions and writes the
// spans as Chrome trace-event JSON to
// .bench_build/e2ebench/trace-<workload>-<seed>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the pipeline sees, reported with
// --trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"verdicts_per_s", "1/s"},
	{"deliver_p50_ms", "ms"},
	{"deliver_p90_ms", "ms"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the single-layer metrics, reported with --trace 1. Layers
// a workload does not reach report 0.
var perLayer = []metricDef{
	{"llm.generate_ms", "ms"},
	{"llm.lines", "count"},
	{"llm.offtask_lines", "count"},
	{"llm.finetune_ms", "ms"},
	{"fpv.verify_ms", "ms"},
	{"fpv.design_verify_p95_ms", "ms"},
	{"fpv.product_states", "count"},
	{"fpv.exhaustive", "count"},
	{"fpv.graph_cache_bytes", "bytes"},
	{"vstatic.analyze_ms", "ms"},
	{"vstatic.discharged", "count"},
	{"vstatic.discharge_ratio", "fraction"},
	{"corrector.correct_ms", "ms"},
	{"corrector.repaired", "count"},
	{"corrector.unparsable", "count"},
	{"bench.elaborate_ms", "ms"},
	{"eval.worker_busy_ms", "ms"},
	{"eval.worker_idle_frac", "fraction"},
	{"eval.reorder_wait_ms", "ms"},
	{"mine.mine_ms", "ms"},
	{"mine.assertions", "count"},
	{"astore.hits", "count"},
	{"astore.misses", "count"},
	{"astore.hit_ratio", "fraction"},
	{"astore.disk_bytes", "bytes"},
	{"astore.cold_pass_ms", "ms"},
	{"astore.warm_pass_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"check.verdict_mismatch", "count"},
	{"check.bounded_pass_frac", "fraction"},
	{"check.failed_frac", "fraction"},
}

const (
	setupRounds = 11 // set-ups per run; setup_s is their median
	minReps     = 3  // timed repetitions per run, at least
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 10, "measured time per run, in seconds")
	traced := fl.Int("trace", 0, "1 runs traced repetitions and reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "e2ebench: --seconds must not be negative")
		return 2
	}
	workers := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	in, err := makeInputs(*workload, *seed, workers)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	traceOut := filepath.Join(".bench_build", "e2ebench", fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
	storeDir := filepath.Join(".bench_build", "e2ebench", fmt.Sprintf("store-%d", os.Getpid()))
	defer os.RemoveAll(storeDir)

	b := &bencher{stdout: stdout, in: in, seconds: time.Duration(*seconds) * time.Second}
	res, err := b.run(context.Background(), 0, storeDir, *traced == 1, traceOut)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bencher runs one workload: set-up, the sequential check run with the
// reference check, then the timed (or traced) repetitions.
type bencher struct {
	stdout  io.Writer
	in      inputs
	seconds time.Duration
}

func (b *bencher) printf(format string, a ...any) { fmt.Fprintf(b.stdout, format+"\n", a...) }

// run measures the workload. maxDesigns > 0 truncates the evaluated
// designs, for the package's tests; the command always passes 0.
func (b *bencher) run(ctx context.Context, maxDesigns int, storeDir string, traced bool, traceOut string) (*result, error) {
	h := hostStamp()
	b.printf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	b.printf("workload %s: %d cells x %d designs, workers %d", b.in.Workload, len(b.in.Cells), len(b.in.EvalDesigns), b.in.Workers)

	// Every end-to-end time is scaled by the calibrations just before and
	// after it (calib.go).
	cal := newCalibrator(b.in.Workers)
	var setups, calibs []float64
	var e *env
	before := cal.measure()
	for range setupRounds {
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = setup(ctx, b.in, maxDesigns, storeDir); err != nil {
			return nil, err
		}
		d := time.Since(t)
		after := cal.measure()
		setups = append(setups, d.Seconds()*speed(before, after))
		before = after
	}

	// The sequential check run gives the verdict vector every timed
	// repetition must reproduce, and the production results the
	// reference path re-verifies. It also builds the simulated model's
	// per-design context memo, which no exported entry point can purge,
	// so timed repetitions see it warm.
	rec := &recorder{}
	chk, err := rep(ctx, e, mode{workers: 1, rec: rec})
	if err != nil {
		return nil, fmt.Errorf("check run: %w", err)
	}
	want := chk.vector
	if b.in.Workload == wlFinetune {
		// The timed repetitions end with the first cell's restart.
		want = append(append([]string(nil), want...), want[:len(e.designs)]...)
	}
	sum, err := referenceCheck(ctx, rec.jobs, b.in.Workers)
	if err != nil {
		return nil, fmt.Errorf("reference check: %w", err)
	}

	correct := true
	var reps, tracedReps []*repOut
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	timed := func(m mode) (*repOut, error) {
		r, err := rep(ctx, e, m)
		if err != nil {
			return nil, err
		}
		after := cal.measure()
		r.speed = speed(before, after)
		calibs = append(calibs, ms(after))
		before = after
		return r, nil
	}
	start := time.Now()
	before = cal.measure()
	for len(reps) < minReps || len(tracedReps) < minReps && traced || time.Since(start) < b.seconds {
		r, err := timed(mode{workers: b.in.Workers})
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		if traced {
			r, err := timed(mode{workers: b.in.Workers, tr: tr})
			if err != nil {
				return nil, err
			}
			tracedReps = append(tracedReps, r)
		}
	}
	attempted, failed := 0, 0
	for _, r := range append(append([]*repOut(nil), reps...), tracedReps...) {
		attempted += r.outcomes
		failed += r.errored
		if err := sameVectors(want, r.vector); err != nil {
			correct = false
			b.printf("CHECK FAILED: a repetition's verdicts differ from the sequential run: %v", err)
		}
	}
	b.printf("check: %d verdicts: n_pass=%d n_cex=%d n_error=%d bounded_pass=%d (%.4f)",
		sum.verdicts, sum.nPass, sum.nCEX, sum.nError, sum.boundedPass, frac(sum.boundedPass, sum.verdicts))
	b.printf("check: verdict_mismatch=%d against the reference path (interp, per-property, no static/cone/slices)", len(sum.mismatches))
	for _, d := range sum.mismatches {
		b.printf("  mismatch: %v", d)
	}
	if len(sum.conflicts) > 0 {
		correct = false
		for _, d := range sum.conflicts {
			b.printf("CHECK FAILED: proof meets counter-example: %v", d)
		}
	}
	b.printf("check: %d repetitions match the sequential verdict vector; failed jobs %d of %d", len(reps)+len(tracedReps), failed, attempted)
	var rawWalls []float64
	for _, r := range reps {
		rawWalls = append(rawWalls, r.wall.Seconds())
	}
	b.printf("host speed: calibration ms: %s (reference %.0f ms); unscaled wall_s: %s",
		summarize(calibs), ms(refCalibration), summarize(rawWalls))

	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	samples := endToEndSamples(reps, setups)
	defs := endToEnd
	if traced {
		defs = perLayer
		samples = layerSamples(tr, tracedReps, reps, b.in.Workers)
		samples["check.verdict_mismatch"] = []float64{float64(len(sum.mismatches))}
		samples["check.bounded_pass_frac"] = []float64{frac(sum.boundedPass, sum.verdicts)}
		samples["check.failed_frac"] = []float64{frac(failed, attempted)}
		if errs := nestingErrors(tr.snapshot(0, tr.len()), 0); len(errs) > 0 {
			res.Correct = false
			b.printf("CHECK FAILED: %d spans do not nest in their parents, first: %s", len(errs), errs[0])
		}
		b.printSelfTimes(tr, tracedReps)
		if err := writeChrome(traceOut, tr.snapshot(0, tr.len())); err != nil {
			return nil, err
		}
		b.printf("trace: %d spans written to %s", tr.len(), traceOut)
	}
	for _, d := range defs {
		s := summarize(samples[d.name])
		res.Metrics[d.name] = metricValue{Value: s.Median, Unit: d.unit}
		b.printf("%-26s %14.4f %-8s %s", d.name, s.Median, d.unit, s)
	}
	return res, nil
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// printSelfTimes prints each layer's total and self time, summed over
// the traced repetitions and divided by their count.
func (b *bencher) printSelfTimes(tr *tracer, traced []*repOut) {
	totals := map[string]*layerTime{}
	var order []string
	for _, r := range traced {
		for _, lt := range selfTimes(tr.snapshot(r.spanFrom, r.spanTo), r.spanFrom) {
			if totals[lt.Name] == nil {
				totals[lt.Name] = &layerTime{Name: lt.Name}
				order = append(order, lt.Name)
			}
			totals[lt.Name].Count += lt.Count
			totals[lt.Name].Total += lt.Total
			totals[lt.Name].Self += lt.Self
		}
	}
	n := time.Duration(len(traced))
	b.printf("%-20s %10s %12s %12s   (per traced repetition)", "span", "count", "total_ms", "self_ms")
	for _, name := range order {
		lt := totals[name]
		b.printf("%-20s %10d %12.3f %12.3f", name, lt.Count/len(traced), ms(lt.Total/n), ms(lt.Self/n))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
