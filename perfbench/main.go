// Command perfbench is the repository's benchmark. It drives the
// compiler, simulator and service through the entry points their users
// call, in one of three workloads:
//
//	suite      one op is the paper's whole evaluation (dspbench -all)
//	codesign   one op is one benchmark's hardware co-design sweep
//	           (dspexplore -hw-report)
//	serve-mix  one op is one POST /v1/run to an in-process dspservd
//	           server, sent open-loop on a fixed schedule
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// replays the same jobs stage by stage and prints the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh -workload suite -seed 1 -seconds 30 -trace 0
//
// See README.md in this directory for why each workload exists and
// which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"dualbank/internal/bench"
)

// metricDef is one metric the benchmark reports, by name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "op/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"alloc_kb_per_op", "KiB"},
	{"sim_cycles_geomean", "cycles"},
	{"mem_words_geomean", "words"},
}

// perLayer lists the metrics a -trace 1 run prints, on every workload;
// a layer the workload does not reach reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range stageNames {
		defs = append(defs,
			metricDef{s + ".ms", "ms"},
			metricDef{s + ".share", "ratio"},
			metricDef{s + ".calls", "count"},
			metricDef{s + ".alloc_kb", "KiB"})
	}
	return append(defs,
		metricDef{"minic.src_kb", "KiB"},
		metricDef{"ir.ops", "count"},
		metricDef{"regalloc.spilled", "count"},
		metricDef{"alloc.edges", "count"},
		metricDef{"alloc.dup_arrays", "count"},
		metricDef{"compact.instrs", "count"},
		metricDef{"sim.cycles", "cycles"},
		metricDef{"bench.hits", "count"},
		metricDef{"bench.misses", "count"},
		metricDef{"bench.hit_ratio", "ratio"},
		metricDef{"bench.compile_ms", "ms"},
		metricDef{"bench.sim_ms", "ms"},
		metricDef{"explore.evals", "count"},
		metricDef{"serve.hit_ratio", "ratio"},
		metricDef{"serve.hit_p50_ms", "ms"},
		metricDef{"serve.hit_tail_ms", "ms"},
		metricDef{"serve.miss_p50_ms", "ms"},
		metricDef{"serve.miss_tail_ms", "ms"},
		metricDef{"serve.overhead_p50_us", "us"},
		metricDef{"serve.overhead_tail_us", "us"},
		metricDef{"serve.shed", "count"},
		metricDef{"serve.non200", "count"},
		metricDef{"loadgen.late_tail_ms", "ms"},
		metricDef{"loadgen.backlog_max", "count"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"wall.setup_s", "s"},
		metricDef{"wall.ops_per_s", "op/s"},
		metricDef{"wall.op_p50_ms", "ms"},
		metricDef{"wall.op_tail_ms", "ms"},
		metricDef{"wall.max_rate_rps", "req/s"},
	)
}()

// config is one invocation's settings.
type config struct {
	seed     uint64
	duration time.Duration
	trace    bool
	// workers bounds harness workers, server workers and client
	// connections alike.
	workers int
	// hwPath is the committed co-design baseline the codesign workload
	// checks every op against.
	hwPath string
	// log receives the human-readable lines printed before the result.
	log io.Writer
}

// report is one run's outcome: op accounting, metric values by name,
// and whether every output check passed.
type report struct {
	attempted, failed int64
	incorrect         bool
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// merge copies metric values into the report.
func (r *report) merge(values map[string]float64) {
	for k, v := range values {
		r.values[k] = v
	}
}

// defsFor lists the metrics of a traced or untraced run.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// fail records one failed op; a wrong output also marks the run
// incorrect.
func (r *report) fail(wrongOutput bool) {
	r.failed++
	if wrongOutput {
		r.incorrect = true
	}
}

// setupReps is how many times each workload builds its inputs; setup_s
// is their median, so one slow build does not move it.
const setupReps = 5

var workloads = map[string]func(ctx context.Context, cfg config) (*report, error){
	"suite":     runSuite,
	"codesign":  runCodesign,
	"serve-mix": runServeMix,
}

func main() {
	name := flag.String("workload", "", "suite, codesign or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed; drives serve-mix's key sequence and generated programs")
	seconds := flag.Float64("seconds", 10, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced replay, 0 end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload suite|codesign|serve-mix, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workers:  runtime.NumCPU(),
		hwPath:   "BENCH_hw.json",
		log:      os.Stdout,
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := rep.resultLine(cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON line: every metric of the run's
// kind, by name with its unit. A metric the workload did not set reads
// 0; an unregistered or non-finite value is an error.
func (r *report) resultLine(traced bool) (string, error) {
	defs := defsFor(traced)
	known := make(map[string]bool, len(defs))
	res := result{
		Correct:   !r.incorrect && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		known[d.name] = true
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var unknown []string
	for name := range r.values {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return "", fmt.Errorf("metrics %v are not registered for this kind of run", unknown)
	}
	if res.Attempted < 1 {
		return "", fmt.Errorf("no op was attempted")
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// printTable writes every metric the report holds, by name and unit,
// as the human-readable part of the output.
func (r *report) printTable(w io.Writer, traced bool) {
	for _, d := range defsFor(traced) {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, fail_ratio %.6g\n",
		r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)))
}

// harnessCounters sums, over real ops, the counters a bench.Harness
// keeps itself.
type harnessCounters struct {
	ops, hits, misses, compileMs, simMs float64
}

// add folds in one op's harness.
func (c *harnessCounters) add(h *bench.Harness) {
	st := h.Stats()
	c.ops++
	c.hits += float64(st.Hits)
	c.misses += float64(st.Misses)
	for _, t := range h.Timings() {
		c.compileMs += t.CompileSeconds * 1e3
		c.simMs += t.SimSeconds * 1e3
	}
}

// fill sets the bench.* metrics, per op.
func (c *harnessCounters) fill(rep *report) {
	if c.ops == 0 {
		return
	}
	rep.values["bench.hits"] = c.hits / c.ops
	rep.values["bench.misses"] = c.misses / c.ops
	rep.values["bench.hit_ratio"] = c.hits / (c.hits + c.misses)
	rep.values["bench.compile_ms"] = c.compileMs / c.ops
	rep.values["bench.sim_ms"] = c.simMs / c.ops
}
