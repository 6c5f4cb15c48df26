// Command isbench is the ISENDER runtime's one benchmark: four
// workloads, each driven only through the program's public entry
// points, each checked for correct output, each reporting every
// end-to-end metric (untraced run) or every per-layer metric (traced
// run) as the last line of standard output.
//
// Usage:
//
//	bash isbench/run.sh --workload fleet-live --seed 1 --seconds 20 --trace 0
//	bash isbench/run.sh --workload all --short     # every workload, small, all checks
//
// See README.md for the workloads, the metrics and the checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opts are the command-line settings shared by every workload.
type opts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	short   bool
	// dir holds the workload's scratch files (compiled policy tables).
	dir string
	// heap samples the live heap; each round ends a lap.
	heap *heapSampler
}

// outcome is what one workload run hands back to main: its operation
// counts, its metrics, and the row fields that identify its inputs.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	row               map[string]any
}

// checkError is a failed output check: the program produced a wrong
// result, so the run must not print a result line.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

// check panics with a checkError when cond is false; run recovers it
// into a non-zero exit.
func check(cond bool, format string, args ...any) {
	if !cond {
		panic(&checkError{fmt.Sprintf(format, args...)})
	}
}

var workloads = map[string]func(opts) outcome{
	"fleet-live":     runFleetLive,
	"fleet-served":   runFleetServed,
	"fleet-churn-k2": runFleetChurn,
	"paper-fig3":     runFig3,
}

var workloadOrder = []string{"fleet-live", "fleet-served", "fleet-churn-k2", "paper-fig3"}

func main() {
	workload := flag.String("workload", "", "fleet-live | fleet-served | fleet-churn-k2 | paper-fig3 | all (with --short)")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	short := flag.Bool("short", false, "run at a small size, with every check, in seconds")
	flag.Parse()

	// One process on one core. On a shared 2-vCPU host the second core's
	// availability drifts: with two threads, wall-clock throughput moved
	// by 30% between two sets of runs of the same code while CPU-time
	// throughput moved by 5-9%. One thread measures the program, not
	// the neighbours.
	runtime.GOMAXPROCS(1)
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "isbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		if !*short {
			fmt.Fprintln(os.Stderr, "isbench: --workload all needs --short")
			os.Exit(2)
		}
		names = workloadOrder
	}
	dir, err := os.MkdirTemp(".", ".isbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "isbench:", err)
		os.Exit(1)
	}
	code := 0
	for _, name := range names {
		o := opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, short: *short, dir: dir}
		if err := runOne(name, o); err != nil {
			fmt.Fprintf(os.Stderr, "isbench: %s: %v\n", name, err)
			code = 1
			break
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "isbench:", err)
	}
	os.Exit(code)
}

// runOne runs one workload, prints its row and result line, and turns a
// failed check into an error (no result line is printed then).
func runOne(name string, o opts) (err error) {
	run, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(*checkError)
			if !ok {
				panic(r)
			}
			err = ce
		}
	}()
	o.heap = startHeapSampler()
	out := run(o)
	o.heap.stop()
	check(out.attempted >= 1, "no operation attempted")
	complete(out.metrics, o.trace)

	row := map[string]any{
		"row":        "isbench",
		"workload":   name,
		"seed":       o.seed,
		"trace":      o.trace,
		"short":      o.short,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"commit":     sourceID(),
	}
	for k, v := range out.row {
		row[k] = v
	}
	rb, err := json.Marshal(row)
	if err != nil {
		return err
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	lb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rb))
	fmt.Println(string(lb))
	return nil
}

// endToEnd and perLayer list every metric BENCHMARK.json declares, with
// its unit. A traced run reports a layer metric its workload does not
// exercise as 0 (with a sample count of 0 for a percentile).
var endToEnd = [][2]string{
	{"member_vsec_per_s", "member-vs/s"},
	{"member_vsec_per_cpu_s", "member-vs/cpu-s"},
	{"setup_s", "s"},
	{"heap_peak_mib", "MiB"},
	{"utility_per_member_s", "bit/s"},
	{"jain", "ratio"},
	{"delay_p99_ms", "ms"},
}

var perLayer = [][2]string{
	{"core.wakes", "count"},
	{"core.acks_per_wake", "ratio"},
	{"core.wake_us_p50", "us"},
	{"core.wake_us_p99", "us"},
	{"belief.updates", "count"},
	{"belief.update_us_p50", "us"},
	{"belief.update_us_p99", "us"},
	{"belief.update_s", "s"},
	{"belief.support_mean", "hyps"},
	{"belief.support_max", "hyps"},
	{"belief.branches", "count"},
	{"belief.branch_keep_ratio", "ratio"},
	{"planner.decisions", "count"},
	{"planner.decide_us_p50", "us"},
	{"planner.decide_us_p99", "us"},
	{"planner.decide_s", "s"},
	{"planner.cache_hit_ratio", "ratio"},
	{"planner.decide_ns_per_hyp_cand", "ns"},
	{"model.run_events_per_s", "1/s"},
	{"model.advance_us", "us"},
	{"policy.probes", "count"},
	{"policy.hit_ratio", "ratio"},
	{"policy.probe_ns_p50", "ns"},
	{"policy.probe_ns_p99", "ns"},
	{"policy.table_records", "count"},
	{"policy.compile_s", "s"},
	{"lifecycle.checkpoints", "count"},
	{"lifecycle.ckpt_bytes_mean", "bytes"},
	{"lifecycle.encode_us", "us"},
	{"lifecycle.decode_us", "us"},
	{"lifecycle.restore_us", "us"},
	{"lifecycle.warm_restarts", "count"},
	{"lifecycle.warm_failovers", "count"},
	{"lifecycle.mttr_virtual_s", "s"},
	{"shard.partition_decide_s_max", "s"},
	{"shard.decide_imbalance", "ratio"},
	{"shard.bottleneck_events", "count"},
	{"shard.partition_events", "count"},
	{"elements.injected", "count"},
	{"elements.dropped", "count"},
	{"elements.delivered", "count"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// complete checks a run's metrics against the declared list: every
// declared metric is present with its unit and nothing else is; a
// traced run's unexercised layer metrics are filled in as 0.
func complete(m map[string]metric, traced bool) {
	want := endToEnd
	if traced {
		want = perLayer
		for _, nu := range perLayer {
			if _, ok := m[nu[0]]; !ok {
				m[nu[0]] = metric{0, nu[1]}
			}
		}
	}
	check(len(m) == len(want), "run reports %d metrics, %d declared", len(m), len(want))
	for _, nu := range want {
		v, ok := m[nu[0]]
		check(ok && v.Unit == nu[1], "metric %s missing or not in %s", nu[0], nu[1])
	}
}
