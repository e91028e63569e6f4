package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"assertionbench/internal/faultinject"
	"assertionbench/internal/fpv"
)

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloads)
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		declared[true][m.Name] = m.Unit
	}

	// Run the benchmark itself, truncated to a few designs, and check the
	// metrics it reports against the declaration.
	for _, traced := range []bool{false, true} {
		res := runTruncated(t, traced)
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		got := map[string]string{}
		for name, v := range res.Metrics {
			got[name] = v.Unit
		}
		if !reflect.DeepEqual(got, declared[traced]) {
			t.Errorf("trace=%v: reported metrics %v, BENCHMARK.json declares %v", traced, got, declared[traced])
		}
	}
}

// runTruncated runs finetune-store, the workload that reaches every
// layer but the corrector, at seed 3 over its first six designs, with
// the fewest repetitions.
func runTruncated(t *testing.T, traced bool) *result {
	t.Helper()
	in, err := makeInputs(wlFinetune, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	b := &bencher{stdout: &out, in: in}
	dir := t.TempDir()
	res, err := b.run(context.Background(), 6, filepath.Join(dir, "store"), traced, filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !res.Correct {
		t.Logf("output:\n%s", out.String())
	}
	return res
}

// An errored job is counted as failed and does not make the run
// incorrect, traced or not: the runner reports no completion for it, so
// its design span must still be closed.
func TestErroredJobKeepsRunCorrect(t *testing.T) {
	restore := faultinject.Plan{Faults: []faultinject.Fault{{Index: 2, Mode: faultinject.ModeError}}}.Install()
	defer restore()
	for _, traced := range []bool{false, true} {
		res := runTruncated(t, traced)
		// Every cell of every repetition, the restart included, evaluates
		// six designs, one of which errors.
		if !res.Correct || res.Attempted == 0 || res.Failed*6 != res.Attempted {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d, want correct with one failed job in six",
				traced, res.Correct, res.Attempted, res.Failed)
		}
	}
}

func TestInputsArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makeInputs(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, 7, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: inputs differ between two calls with one seed", w)
		}
		c, _ := makeInputs(w, 8, 2)
		if c.RunSeed == a.RunSeed {
			t.Errorf("%s: seeds 7 and 8 give the same run seed", w)
		}
	}
	// Set-up (mined in-context examples included) repeats exactly too.
	in, _ := makeInputs(wlFinetune, 5, 2)
	e1, err := setup(context.Background(), in, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := setup(context.Background(), in, 4, "")
	if !reflect.DeepEqual(e1.icl, e2.icl) || !reflect.DeepEqual(e1.in, e2.in) {
		t.Error("set-up differs between two runs with one seed")
	}
}

// designSpanTolerance bounds the part of a sequential stream's wall time
// that its design spans may leave uncovered: the runner's own
// bookkeeping between jobs.
const designSpanTolerance = 0.10

func TestDesignSpansNest(t *testing.T) {
	in, _ := makeInputs(wlGrid, 2, 1)
	e, err := setup(context.Background(), in, 6, "")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	r, err := rep(context.Background(), e, mode{workers: 1, tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.snapshot(r.spanFrom, r.spanTo)
	if errs := nestingErrors(spans, r.spanFrom); len(errs) > 0 {
		t.Fatalf("spans do not nest: %v", errs)
	}
	// On one worker no two spans overlap, so self times add up to the
	// repetition's wall time exactly.
	var self time.Duration
	for _, lt := range selfTimes(spans, r.spanFrom) {
		self += lt.Self
	}
	if root := spans[0]; root.Name != "rep" || (self-root.dur()).Abs() > time.Microsecond {
		t.Errorf("self times sum to %v, traced wall %v", self, root.dur())
	}
	var designs, streams time.Duration
	perDesign := map[string]int{}
	for _, s := range spans {
		switch s.Name {
		case "eval.design":
			designs += s.dur()
			perDesign[s.Design]++
		case "eval.stream":
			streams += s.dur()
		}
	}
	if len(perDesign) != len(in.Cells)*6 {
		t.Errorf("%d design IDs, want %d", len(perDesign), len(in.Cells)*6)
	}
	if cover := float64(designs) / float64(streams); cover < 1-designSpanTolerance || cover > 1 {
		t.Errorf("design spans cover %.3f of the traced stream time, want within %.2f of 1", cover, designSpanTolerance)
	}
	if err := writeChrome(filepath.Join(t.TempDir(), "trace.json"), spans); err != nil {
		t.Fatal(err)
	}
}

func TestConflictRules(t *testing.T) {
	proven := fpv.Result{Status: fpv.StatusProven, Exhaustive: true}
	static := fpv.Result{Status: fpv.StatusVacuous, Static: true}
	bounded := fpv.Result{Status: fpv.StatusBoundedPass}
	cex := fpv.Result{Status: fpv.StatusCEX}
	parseErr := fpv.Result{Status: fpv.StatusError}
	for _, tc := range []struct {
		name      string
		prod, ref fpv.Result
		want      bool
	}{
		{"exhaustive proof vs cex", proven, cex, true},
		{"cex vs static proof", cex, static, true},
		{"two proofs disagree", proven, fpv.Result{Status: fpv.StatusVacuous, Exhaustive: true}, true},
		{"error on one side", parseErr, bounded, true},
		{"bounded pass vs cex", bounded, cex, false},
		{"cex vs bounded pass", cex, bounded, false},
		{"agreeing proofs", proven, proven, false},
		{"both errors", parseErr, parseErr, false},
	} {
		if got := conflicting(tc.prod, tc.ref); got != tc.want {
			t.Errorf("%s: conflicting = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 10 * ms},
		{Name: "child", Parent: 0, Start: 1 * ms, End: 5 * ms},
		{Name: "child", Parent: 0, Start: 3 * ms, End: 7 * ms}, // overlaps the first
	}
	for _, lt := range selfTimes(spans, 0) {
		if lt.Name == "parent" && lt.Self != 4*ms {
			t.Errorf("parent self time %v, want 4ms", lt.Self)
		}
	}
}

// The calibration allocates nothing, so what the program leaves on the
// heap cannot slow it.
func TestCalibrationAllocatesNothing(t *testing.T) {
	c := newCalibrator(1)
	if n := testing.AllocsPerRun(3, func() { calibWork(c.bufs[0], c.maps[0]) }); n != 0 {
		t.Errorf("calibWork allocates %.0f times per round", n)
	}
}
