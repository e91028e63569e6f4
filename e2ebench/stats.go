package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// host identifies the machine a result was measured on. Results from
// different hosts are not comparable.
type host struct {
	NProc, GOMAXPROCS   int
	GoVersion, CPUModel string
}

func hostStamp() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// summary is one metric's sample distribution: the median, and the
// highest percentile that still has at least ten samples beyond it (none
// below eleven samples).
type summary struct {
	N                     int
	Median, Pct, PctValue float64
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	if s.N == 0 {
		return s
	}
	s.Median = quantile(sorted, 0.5)
	if s.N > 10 {
		// Ten samples lie strictly above the (N-10)th smallest.
		s.Pct = 100 * float64(s.N-10) / float64(s.N)
		s.PctValue = sorted[s.N-11]
	}
	return s
}

func (s summary) String() string {
	if s.Pct == 0 {
		return fmt.Sprintf("median %.4f, n=%d", s.Median, s.N)
	}
	return fmt.Sprintf("median %.4f, p%.2f %.4f, n=%d", s.Median, s.Pct, s.PctValue, s.N)
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// endToEndSamples collects the untraced repetitions' samples, one per
// repetition, with every time scaled to the reference host's speed. The
// delivery quantiles are taken within each repetition, so that a few
// repetitions the host slowed move their median less than they would
// move a quantile of the pooled outcomes.
func endToEndSamples(reps []*repOut, setups []float64) map[string][]float64 {
	m := map[string][]float64{"setup_s": setups}
	for _, r := range reps {
		wall := r.wall.Seconds() * r.speed
		m["wall_s"] = append(m["wall_s"], wall)
		m["verdicts_per_s"] = append(m["verdicts_per_s"], float64(r.verdicts)/wall)
		m["alloc_mb"] = append(m["alloc_mb"], float64(r.alloc)/1e6)
		m["peak_heap_mb"] = append(m["peak_heap_mb"], float64(r.peak)/1e6)
		deliver := make([]float64, len(r.deliver))
		for i, d := range r.deliver {
			deliver[i] = ms(d) * r.speed
		}
		sort.Float64s(deliver)
		m["deliver_p50_ms"] = append(m["deliver_p50_ms"], quantile(deliver, 0.5))
		m["deliver_p90_ms"] = append(m["deliver_p90_ms"], quantile(deliver, 0.9))
	}
	return m
}

// layerSamples collects one value per traced repetition for every
// per-layer metric, plus the tracing overhead: the median traced wall
// over the median untraced wall of the same run, both scaled to the
// reference host's speed. The per-layer times are as measured.
func layerSamples(tr *tracer, traced, untraced []*repOut, workers int) map[string][]float64 {
	m := map[string][]float64{}
	add := func(name string, v float64) { m[name] = append(m[name], v) }
	for _, r := range traced {
		total := map[string]time.Duration{}
		var verify []float64
		for _, s := range tr.snapshot(r.spanFrom, r.spanTo) {
			total[s.Name] += s.dur()
			if s.Name == "fpv.verify" {
				verify = append(verify, ms(s.dur()))
			}
		}
		for _, name := range []string{"llm.generate", "llm.finetune", "fpv.verify", "vstatic.analyze",
			"corrector.correct", "bench.elaborate", "mine.mine", "astore.cold_pass", "astore.warm_pass"} {
			add(name+"_ms", ms(total[name]))
		}
		sort.Float64s(verify)
		p95 := 0.0
		if len(verify) > 0 {
			p95 = verify[(len(verify)*95+99)/100-1]
		}
		add("fpv.design_verify_p95_ms", p95)
		busy := total["eval.design"]
		add("eval.worker_busy_ms", ms(busy))
		add("eval.worker_idle_frac", 1-float64(busy)/float64(workers)/math.Max(float64(total["eval.stream"]), 1))
		st := r.stats
		reorder := 0.0
		if st.reorderN > 0 {
			reorder = ms(st.reorderSum) / float64(st.reorderN)
		}
		add("eval.reorder_wait_ms", reorder)
		add("llm.lines", float64(st.lines))
		add("llm.offtask_lines", float64(st.offtask))
		add("fpv.product_states", float64(st.states))
		add("fpv.exhaustive", float64(st.exhaustive))
		add("fpv.graph_cache_bytes", float64(st.graphBytes))
		add("vstatic.discharged", float64(st.static))
		add("vstatic.discharge_ratio", frac(st.static, st.results))
		add("corrector.repaired", float64(st.repaired))
		add("corrector.unparsable", float64(st.unparsable))
		add("mine.assertions", float64(st.mined))
		add("astore.hits", float64(st.storeHits))
		add("astore.misses", float64(st.storeMisses))
		add("astore.hit_ratio", frac(int(st.storeHits), int(st.storeHits+st.storeMisses)))
		add("astore.disk_bytes", float64(st.diskBytes))
	}
	walls := func(rs []*repOut) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.wall.Seconds()*r.speed)
		}
		return summarize(xs).Median
	}
	add("trace.overhead_pct", 100*(walls(traced)/walls(untraced)-1))
	return m
}
