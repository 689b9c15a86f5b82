// Command perfbench is the end-to-end benchmark of IQ-Paths. It runs
// one workload against the real code, checks the outputs, and prints
// every end-to-end metric by name with its unit; the last line of
// standard output is one JSON object with the result.
//
//	go run . --workload bulk --seed 1 --seconds 10 --trace 0
//
// Workloads: bulk, fanout and fig8 drive the live pipeline in one
// process over loopback (driver → PGOS or the shard plane →
// transport.Path → RUDP → optional testbed relays → sink accounting);
// matrix runs experiment.RunMatrix over simnet in virtual time. With
// --trace 1 the workload runs twice, untraced then traced, and the
// per-layer metrics, CPU shares per layer and the tracing overhead are
// printed instead; the traced run's spans are written under
// .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: bulk, fanout, fig8 or matrix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured interval")
	trace := flag.Int("trace", 0, "1: also run traced and report per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	runOnce := func(tr *tracer, chk *checks) (*outcome, error) {
		switch *workload {
		case "bulk":
			return runLive(bulkConfig(), *seed, *seconds, tr, chk)
		case "fanout":
			return runLive(fanoutConfig(), *seed, *seconds, tr, chk)
		case "fig8":
			return runLive(fig8Config(), *seed, *seconds, tr, chk)
		case "matrix":
			return runMatrix(*seed, *seconds, tr, chk)
		}
		return nil, fmt.Errorf("unknown workload %q (bulk, fanout, fig8, matrix)", *workload)
	}

	record := runRecord(*workload, *seed, *seconds, *trace)
	fmt.Println("# run " + formatRecord(record))
	chk := &checks{}
	base, err := runOnce(nil, chk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report(base, e2eMetrics, base.e2e)
	defs, values := e2eMetrics, base.e2e
	if *trace == 1 {
		tr := newTracer()
		traced, err := runOnce(tr, chk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			return 1
		}
		values = map[string]float64{}
		for _, d := range layerMetrics {
			values[d.name] = traced.layer[d.name]
		}
		// Overhead is the tracing cost in each metric's own unit: how
		// much worse the traced run read than the untraced one.
		for _, d := range e2eMetrics {
			diff := traced.e2e[d.name] - base.e2e[d.name]
			if d.better == "higher" {
				diff = -diff
			}
			values["overhead."+d.name] = diff
		}
		defs = layerMetrics
		fmt.Println("# per-layer metrics (traced run); each names what it should move")
		for _, d := range defs {
			fmt.Printf("%-34s %14.6g %-12s -> %s\n", d.name, finite(values[d.name]), d.unit, d.moves)
		}
		path := fmt.Sprintf(".bench_build/trace-%s-seed%d.jsonl", *workload, *seed)
		if err := tr.writeSpans(path, record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		} else {
			fmt.Println("# spans written to " + path)
		}
	}

	n, failures := chk.failures()
	for _, f := range failures {
		fmt.Println("# check failed: " + f)
	}
	if n > len(failures) {
		fmt.Printf("# ... %d check failures in all\n", n)
	}
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: n == 0, Attempted: max(base.attempted, 1), Failed: base.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{finite(values[d.name]), d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if n > 0 {
		return 1
	}
	return 0
}

// report prints the untraced run's end-to-end metrics and the figures
// reported beside them.
func report(o *outcome, defs []metricDef, values map[string]float64) {
	fmt.Println("# end-to-end metrics (untraced run)")
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %s\n", d.name, finite(values[d.name]), d.unit)
	}
	failedFrac := float64(o.failed) / float64(max(o.attempted, 1))
	fmt.Printf("# failed_frac %.6g (%d of %d attempted)\n", failedFrac, o.failed, o.attempted)
	fmt.Printf("# latency samples %d", o.latSamples)
	if o.dueLat > 0 {
		fmt.Printf(" of %d packets due", o.dueLat)
	}
	fmt.Printf("; gomaxprocs %d beside mbps_per_core\n", runtime.GOMAXPROCS(0))
	if o.windows > 0 {
		fmt.Printf("# sink windows %d, violated %d\n", o.windows, o.violated)
	}
	fmt.Printf("# setup_s samples %.4g\n", o.setupTimes)
	for _, n := range o.notes {
		fmt.Println("# " + n)
	}
}

// runRecord describes where and how a run was made, so numbers from
// different machines are never compared as if alike.
func runRecord(workload string, seed int64, seconds float64, trace int) map[string]string {
	return map[string]string{
		"workload":   workload,
		"seed":       fmt.Sprint(seed),
		"seconds":    fmt.Sprint(seconds),
		"trace":      fmt.Sprint(trace),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":     kernelRelease(),
		"network":    "loopback 127.0.0.1",
	}
}

func formatRecord(r map[string]string) string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strings.ReplaceAll(r[k], " ", "_")
	}
	return strings.Join(parts, " ")
}
