// Command benchtrend merges the checked-in BENCH_pr*.json artifacts
// into a single markdown trajectory table so the performance history of
// the repository is readable at a glance: one row per PR with the cold
// and warm full-corpus FPV pass, the per-design p95, and a historical
// "tail" column. That column holds the cost-vs-contiguous dispatch p95
// ratio, which only BENCH_pr9 recorded; the cost dispatcher it measured
// has since been removed.
//
// Usage:
//
//	go run ./scripts/benchtrend [dir]
//
// dir defaults to the current directory. Missing columns render as "—":
// earlier PRs predate the batched engine, the p95 instrumentation, or
// the dispatcher, and the table shows that honestly rather than
// back-filling zeros.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// bench mirrors just the slices of the perfbench report schema the
// table needs; unknown fields in any vintage of the file are ignored.
type bench struct {
	Description string `json:"description"`
	Quick       bool   `json:"quick"`
	FPV         struct {
		BatchedMs    float64 `json:"batched_ms"`
		CompiledMs   float64 `json:"compiled_ms"`
		WarmMs       float64 `json:"batched_warm_ms"`
		DesignP95Ms  float64 `json:"batched_design_p95_ms"`
		SpeedupVsBas float64 `json:"speedup_vs_baseline"`
	} `json:"fpv"`
	Sched struct {
		CostP95Ms    float64 `json:"cost_design_p95_ms"`
		TailSpeedup  float64 `json:"tail_speedup"`
		ContigP95Ms  float64 `json:"contiguous_design_p95_ms"`
		SchedWorkers int     `json:"workers"`
	} `json:"sched"`
}

func cell(v float64) string {
	if v == 0 {
		return "—"
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtrend: ")
	dir := "."
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_pr*.json"))
	if err != nil {
		log.Fatal(err)
	}
	if len(files) == 0 {
		log.Fatalf("no BENCH_pr*.json files under %s", dir)
	}
	type row struct {
		pr   int
		file string
		b    bench
	}
	var rows []row
	for _, f := range files {
		base := filepath.Base(f)
		num := strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_pr"), ".json")
		pr, err := strconv.Atoi(num)
		if err != nil {
			log.Fatalf("%s: unparseable PR number %q", base, num)
		}
		data, err := os.ReadFile(f)
		if err != nil {
			log.Fatal(err)
		}
		var b bench
		if err := json.Unmarshal(data, &b); err != nil {
			log.Fatalf("%s: %v", base, err)
		}
		if b.Quick {
			log.Printf("%s: quick-mode numbers, excluded from the trajectory", base)
			continue
		}
		rows = append(rows, row{pr, base, b})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].pr < rows[j].pr })

	fmt.Println("# Performance trajectory")
	fmt.Println()
	fmt.Println("Full-corpus FPV-bound verification pass per PR, milliseconds on")
	fmt.Println("the CI host (1 CPU). \"cold\" is the best engine configuration of")
	fmt.Println("that PR starting from empty caches; \"warm\" re-runs it against a")
	fmt.Println("populated artifact store; \"design p95\" is the 95th-percentile")
	fmt.Println("single-design time within the cold pass; \"tail\" is historical")
	fmt.Println("and holds data for BENCH_pr9 only: the contiguous-vs-cost dispatch")
	fmt.Println("p95 ratio of the cost-aware dispatcher, since removed.")
	fmt.Println()
	fmt.Println("| PR | cold (ms) | warm (ms) | design p95 (ms) | tail | what changed |")
	fmt.Println("|---:|----------:|----------:|----------------:|-----:|:-------------|")
	for _, r := range rows {
		cold := r.b.FPV.BatchedMs
		if cold == 0 {
			cold = r.b.FPV.CompiledMs
		}
		tail := "—"
		if r.b.Sched.TailSpeedup != 0 {
			tail = fmt.Sprintf("%.2fx", r.b.Sched.TailSpeedup)
		}
		desc := r.b.Description
		if i := strings.IndexAny(desc, ",("); i > 0 {
			desc = strings.TrimSpace(desc[:i])
		}
		fmt.Printf("| %d | %s | %s | %s | %s | %s |\n",
			r.pr, cell(cold), cell(r.b.FPV.WarmMs), cell(r.b.FPV.DesignP95Ms), tail, desc)
	}
}
