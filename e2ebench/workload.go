package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"assertionbench/internal/bench"
	"assertionbench/internal/eval"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
	"assertionbench/internal/vstatic"
)

// env is what set-up builds once per process: the workload inputs, the
// corpus and the mined in-context examples (what assertionbench.Load
// does).
type env struct {
	in       inputs
	corpus   []bench.Design
	train    []bench.Design
	icl      []llm.Example
	designs  []bench.Design // in.EvalDesigns, resolved
	storeDir string
}

// mineFPV is the miners' verification budget, the default of
// eval.ExperimentOptions.MineFPV.
func mineFPV(seed int64) fpv.Options {
	return fpv.Options{MaxProductStates: 1500, MaxInputBits: 6, MaxInputSamples: 8,
		RandomRuns: 8, RandomDepth: 32, Seed: seed}
}

// setup builds the inputs and mines the in-context examples. maxDesigns
// > 0 truncates the evaluated designs (tests only).
func setup(ctx context.Context, in inputs, maxDesigns int, storeDir string) (*env, error) {
	e := &env{in: in, corpus: bench.TestCorpus(), train: bench.TrainDesigns(), storeDir: storeDir}
	if len(e.corpus) != corpusSize {
		return nil, fmt.Errorf("corpus has %d designs, want %d", len(e.corpus), corpusSize)
	}
	for _, d := range e.train {
		ex, err := bench.MineExample(ctx, d, bench.ICLOptions{Seed: in.RunSeed, FPV: mineFPV(in.RunSeed)})
		if err != nil {
			return nil, err
		}
		e.icl = append(e.icl, ex)
	}
	for _, i := range in.EvalDesigns {
		e.designs = append(e.designs, e.corpus[i])
	}
	if maxDesigns > 0 && maxDesigns < len(e.designs) {
		e.designs = e.designs[:maxDesigns]
		if len(e.in.MineDesigns) > maxDesigns {
			e.in.MineDesigns = e.in.MineDesigns[:maxDesigns]
		}
	}
	return e, nil
}

// mode selects how one repetition runs.
type mode struct {
	workers int
	// tr, when set, traces the repetition through the Generator and
	// Verifier seams and OnDesignDone. Untraced repetitions install
	// nothing.
	tr *tracer
	// rec, when set, marks the sequential check run: it records every
	// production FPV result for the reference check, and finetune-store
	// attaches no store and runs no restart.
	rec *recorder
}

// layerStats are the counters the traced seams collect in one
// repetition.
type layerStats struct {
	mu                         sync.Mutex
	lines, offtask             int
	repaired, unparsable       int
	corrected                  []string // corrector output, parsed after the repetition
	states, exhaustive, static int
	results                    int
	mined                      int
	reorderSum                 time.Duration
	reorderN                   int
	graphBytes                 int64
	storeHits, storeMisses     int64
	diskBytes                  int64
}

// repOut is what one repetition produced.
type repOut struct {
	wall     time.Duration
	vector   []string // one entry per delivered design outcome, in order
	deliver  []time.Duration
	outcomes int
	errored  int
	verdicts int
	alloc    uint64
	peak     uint64
	// speed scales the repetition's times to the reference host's speed
	// (calib.go).
	speed float64
	// Traced repetitions only: the span ID range and seam counters.
	spanFrom, spanTo int
	stats            *layerStats
}

// rep runs one repetition of the workload.
func rep(ctx context.Context, e *env, m mode) (*repOut, error) {
	out := &repOut{stats: &layerStats{}}
	if e.in.Workload == wlFinetune && m.rec == nil {
		if err := os.RemoveAll(e.storeDir); err != nil {
			return nil, err
		}
		// The store is written without fsync, so the kernel would write
		// the last repetition's blobs back some seconds later, in the
		// middle of a later repetition. Flushing them here keeps every
		// repetition's disk work its own.
		syscall.Sync()
	}
	runtime.GC()
	allocs0 := readAllocs()
	stopPeak := samplePeak()
	if m.tr != nil {
		out.spanFrom = m.tr.len()
	}
	root := m.tr.begin("rep", -1, "")
	t0 := time.Now()
	var err error
	switch e.in.Workload {
	case wlGrid:
		for _, c := range e.in.Cells {
			if err = runCell(ctx, e, m, c, nil, true, "", root, out); err != nil {
				break
			}
		}
	case wlFinetune:
		err = finetuneRep(ctx, e, m, root, out)
	}
	out.wall = time.Since(t0)
	m.tr.end(root)
	if m.tr != nil {
		out.spanTo = m.tr.len()
	}
	out.peak = stopPeak()
	out.alloc = readAllocs() - allocs0
	// Counted from the delivered outcomes once the repetition is over, so
	// that the parsing stays out of the traced wall time.
	for _, line := range out.stats.corrected {
		if _, perr := sva.Parse(line); perr != nil {
			out.stats.unparsable++
		}
	}
	return out, err
}

// finetuneRep is the Fig. 9 pipeline as a user runs it with a cache
// directory: mine the 75% split, fine-tune each base once, and evaluate
// the tuned model at each shot count on the held-out designs with the
// corrector off, each cell over the cache directory as its own process
// would be. The first cell runs over the empty directory and writes
// programs, graphs, the cost journal and its run manifest behind; the
// later cells read them. Then, as a restarted process, the first cell
// runs again over the now warm directory. The sequential check run
// attaches no store and runs no restart.
func finetuneRep(ctx context.Context, e *env, m mode, root int, out *repOut) error {
	var tuning []llm.Example
	mineOne := func(d bench.Design, maxAssertions int) error {
		s := m.tr.begin("mine.mine", root, d.Name)
		ex, err := bench.MineExample(ctx, d, bench.ICLOptions{Seed: e.in.RunSeed, FPV: mineFPV(e.in.RunSeed), MaxAssertions: maxAssertions})
		m.tr.end(s)
		if err != nil {
			return fmt.Errorf("mining %s: %w", d.Name, err)
		}
		out.stats.mined += len(ex.Assertions)
		tuning = append(tuning, ex)
		return nil
	}
	// The five training designs always belong to the tuning corpus.
	for _, d := range e.train {
		if err := mineOne(d, 0); err != nil {
			return err
		}
	}
	for _, i := range e.in.MineDesigns {
		if err := mineOne(e.corpus[i], 6); err != nil {
			return err
		}
	}
	tuned := map[string]*llm.Model{}
	for _, c := range e.in.Cells {
		if tuned[c.Profile] != nil {
			continue
		}
		p, err := llm.ProfileByName(c.Profile)
		if err != nil {
			return err
		}
		s := m.tr.begin("llm.finetune", root, c.Profile)
		tuned[c.Profile], _ = llm.Finetune(llm.New(p), tuning, llm.FinetuneOptions{Epochs: e.in.Epochs, Seed: e.in.RunSeed})
		m.tr.end(s)
	}
	cellOver := func(c cell, cacheDir string, parent int) error {
		return runCell(ctx, e, m, c, eval.ModelGenerator{Model: tuned[c.Profile]}, false, cacheDir, parent, out)
	}
	if m.rec != nil {
		for _, c := range e.in.Cells {
			if err := cellOver(c, "", root); err != nil {
				return err
			}
		}
		return nil
	}
	defer bench.SetCacheDir("")
	for i, c := range e.in.Cells {
		parent := root
		if i == 0 {
			parent = m.tr.begin("astore.cold_pass", root, "")
		}
		err := cellOver(c, e.storeDir, parent)
		if i == 0 {
			m.tr.end(parent)
		}
		if err != nil {
			return err
		}
	}
	if m.tr != nil {
		out.stats.diskBytes = dirBytes(e.storeDir)
	}
	ws := m.tr.begin("astore.warm_pass", root, "")
	err := cellOver(e.in.Cells[0], e.storeDir, ws)
	m.tr.end(ws)
	if st := bench.DiskStore(); st != nil {
		out.stats.storeHits, out.stats.storeMisses = st.Hits(), st.Misses()
	}
	return err
}

// runCell is one evaluation run, consumed through eval.Stream the way a
// -stream consumer reads it. The in-memory caches are purged first, as
// in a fresh abench process. gen nil builds the COTS model generator
// inside the cell, as eval.Experiment.RunCOTS does. cacheDir, when set,
// attaches the persistent artifact store.
func runCell(ctx context.Context, e *env, m mode, c cell, gen eval.Generator, useCorrector bool, cacheDir string, parent int, out *repOut) error {
	bench.DefaultElab.Purge()
	tr := m.tr
	cs := tr.begin("eval.cell", parent, c.label())
	defer tr.end(cs)
	if cacheDir != "" {
		s := tr.begin("astore.open", cs, "")
		err := bench.SetCacheDir(cacheDir)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	if gen == nil {
		p, err := llm.ProfileByName(c.Profile)
		if err != nil {
			return err
		}
		s := tr.begin("llm.new", cs, c.Profile)
		gen = eval.NewModelGenerator(p)
		tr.end(s)
	}
	opt := eval.RunOptions{
		Shots:        c.Shots,
		Seed:         e.in.RunSeed,
		UseCorrector: useCorrector,
		Workers:      m.workers,
		ErrorPolicy:  eval.ErrorPolicyContinue,
	}
	if m.rec != nil {
		opt.NewVerifier = m.rec.verifier(c.label())
	}
	var ct *cellTrace
	if tr != nil {
		if err := preElaborate(tr, cs, c, e.designs); err != nil {
			return err
		}
		ct = newCellTrace(tr, c, e.designs, out.stats)
		gen, opt = ct.install(gen, opt)
		ct.stream = tr.begin("eval.stream", cs, c.label())
		for i := range ct.ids {
			ct.ids[i] = tr.reserve("eval.design", ct.stream, ct.key(i))
		}
		defer tr.end(ct.stream)
	}
	start := time.Now()
	for o, err := range eval.Stream(ctx, gen, e.icl, e.designs, opt) {
		if err != nil {
			return fmt.Errorf("%s: %w", c.label(), err)
		}
		at := time.Since(start)
		out.deliver = append(out.deliver, at)
		if ct != nil {
			ct.delivered(o, at)
		}
		out.vector = append(out.vector, encode(c, o))
		out.outcomes++
		out.verdicts += len(o.Verdicts)
		if o.Errored {
			out.errored++
		}
	}
	if ct != nil {
		g := bench.DefaultElab.Graphs().Bytes()
		out.stats.mu.Lock()
		out.stats.graphBytes = max(out.stats.graphBytes, g)
		out.stats.mu.Unlock()
	}
	return nil
}

// encode renders one outcome's verdict classes for the output check.
func encode(c cell, o eval.DesignOutcome) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/%s:", c.label(), o.Design)
	for _, v := range o.Verdicts {
		sb.WriteString(v.String()[:1])
	}
	if o.Truncated {
		sb.WriteString(" truncated")
	}
	if o.Errored {
		sb.WriteString(" errored: " + o.Err)
	}
	return sb.String()
}

// preElaborate elaborates the cell's designs through bench.Elaborate,
// one span each, so that elaboration is timed around the layer call
// itself; the runner's own calls then hit the cache. It elaborates one
// design after another before the run starts, as the cost dispatcher's
// planner does inside eval.Stream, so the traced run keeps the
// untraced run's concurrency.
func preElaborate(tr *tracer, parent int, c cell, designs []bench.Design) error {
	for i, d := range designs {
		s := tr.begin("bench.elaborate", parent, fmt.Sprintf("%s#%d", c.label(), i))
		_, err := bench.Elaborate(d)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// cellTrace is one traced cell: design spans are reserved before the
// run and filled from OnDesignDone; the seams parent their spans to
// them.
type cellTrace struct {
	tr     *tracer
	c      cell
	pos    map[string]int // design name -> position in the cell
	ids    []int          // reserved eval.design span per position
	done   []time.Duration
	stream int
	stats  *layerStats
	// genEnd is when generation returned, per position. The runner calls
	// Generate and then the verifier on one goroutine per design, so
	// each entry is written and read by that goroutine only.
	genEnd []time.Duration
}

func newCellTrace(tr *tracer, c cell, designs []bench.Design, stats *layerStats) *cellTrace {
	ct := &cellTrace{tr: tr, c: c, pos: make(map[string]int, len(designs)),
		ids: make([]int, len(designs)), done: make([]time.Duration, len(designs)),
		stats: stats, genEnd: make([]time.Duration, len(designs))}
	for i, d := range designs {
		ct.pos[d.Name] = i
	}
	return ct
}

func (ct *cellTrace) key(i int) string { return fmt.Sprintf("%s#%d", ct.c.label(), i) }

// install wraps the generator and verifier seams and hooks
// OnDesignDone. Every other run option, the corrector included, stays
// as the workload sets it.
func (ct *cellTrace) install(gen eval.Generator, opt eval.RunOptions) (eval.Generator, eval.RunOptions) {
	opt.NewVerifier = func() eval.Verifier {
		return tracedVerifier{ct: ct, inner: eval.NewEngineVerifier().(eval.BatchVerifier)}
	}
	// The runner measures a design's wall time just before the callback,
	// on its own clock, so the span is widened over the children that
	// began inside the job a few microseconds before its measured start.
	opt.OnDesignDone = func(i int, wall, done time.Duration) {
		now := ct.tr.now()
		ct.tr.closeOver(ct.ids[i], now-wall, now)
		ct.stats.mu.Lock()
		ct.done[i] = done
		ct.stats.mu.Unlock()
	}
	return tracedGen{ct: ct, inner: gen}, opt
}

// delivered records what Stream delivered at position o.Index: the
// reorder wait (the time between the design's completion and its
// delivery) and the corrector's output. The runner reports no
// completion for an errored job, so its design span is closed at
// delivery, over the layer calls the job made, and it gives no reorder
// sample.
func (ct *cellTrace) delivered(o eval.DesignOutcome, at time.Duration) {
	i := o.Index
	if o.Errored {
		now := ct.tr.now()
		ct.tr.closeOver(ct.ids[i], now, now)
		return
	}
	ct.stats.mu.Lock()
	defer ct.stats.mu.Unlock()
	ct.stats.reorderSum += at - ct.done[i]
	ct.stats.reorderN++
	for k, line := range o.Corrected {
		if line != o.Generated[k] {
			ct.stats.repaired++
		}
	}
	ct.stats.corrected = append(ct.stats.corrected, o.Corrected...)
}

type tracedGen struct {
	ct    *cellTrace
	inner eval.Generator
}

func (g tracedGen) Name() string { return g.inner.Name() }

func (g tracedGen) Generate(ctx context.Context, d bench.Design, icl []llm.Example, opt eval.GenOptions) (out eval.GenOutput, err error) {
	ct := g.ct
	i := ct.pos[d.Name]
	ct.tr.timed("llm.generate", ct.ids[i], ct.key(i), func() {
		out, err = g.inner.Generate(ctx, d, icl, opt)
	})
	ct.genEnd[i] = ct.tr.now()
	ct.stats.mu.Lock()
	ct.stats.lines += len(out.Assertions)
	ct.stats.offtask += out.OffTask
	ct.stats.mu.Unlock()
	return out, err
}

type tracedVerifier struct {
	ct    *cellTrace
	inner eval.BatchVerifier
}

func (v tracedVerifier) Verify(ctx context.Context, d bench.Design, nl *verilog.Netlist, a string, opt fpv.Options) fpv.Result {
	return v.VerifyBatch(ctx, d, nl, []string{a}, opt)[0]
}

// VerifyBatch times the static analysis apart from the search: the
// engine memoizes the analysis on the netlist (vstatic.For), so
// computing it first moves its cost into its own span without adding
// work. Between generation returning and this call the runner does
// nothing but correct the lines (when the workload turns the corrector
// on), so that interval is the corrector.correct span.
func (v tracedVerifier) VerifyBatch(ctx context.Context, d bench.Design, nl *verilog.Netlist, lines []string, opt fpv.Options) (rs []fpv.Result) {
	ct := v.ct
	i := ct.pos[d.Name]
	ct.tr.add("corrector.correct", ct.ids[i], ct.key(i), ct.genEnd[i], ct.tr.now())
	ct.tr.timed("vstatic.analyze", ct.ids[i], ct.key(i), func() { vstatic.For(nl) })
	ct.tr.timed("fpv.verify", ct.ids[i], ct.key(i), func() {
		rs = v.inner.VerifyBatch(ctx, d, nl, lines, opt)
	})
	ct.stats.mu.Lock()
	for _, r := range rs {
		ct.stats.results++
		ct.stats.states += r.States
		if r.Exhaustive {
			ct.stats.exhaustive++
		}
		if r.Static {
			ct.stats.static++
		}
	}
	ct.stats.mu.Unlock()
	return rs
}

// readAllocs is the cumulative heap allocation count in bytes.
func readAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// samplePeak polls the live heap every millisecond until the returned
// stop function is called, which reports the peak seen.
func samplePeak() func() uint64 {
	stop, done := make(chan struct{}), make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		<-done
		return peak
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// sameVectors reports the first difference between two verdict vectors.
func sameVectors(want, got []string) error {
	if slices.Equal(want, got) {
		return nil
	}
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			return fmt.Errorf("outcome %d: want %q, got %q", i, want[i], got[i])
		}
	}
	return fmt.Errorf("%d outcomes, want %d", len(got), len(want))
}
