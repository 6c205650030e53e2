// Command secbench is the repository's end-to-end benchmark. It drives
// secure TPC-H queries through the session layer and through an
// in-process secyand daemon on loopback TCP, checks every result against
// the plaintext engine and every query's traffic against its plan, and
// prints the end-to-end metrics. With --trace 1 it prints the per-layer
// metrics instead and writes a Chrome trace of its own spans.
//
// Usage:
//
//	secbench --workload session-repeat --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any query failed, returned a wrong result, moved a byte count off its
// plan or broke the workload's planner-cache regime. README.md lists the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// traceOut is the Chrome trace file of a traced run.
	traceOut string
	// toy shrinks every input to a few rows, for the harness self-test.
	toy bool
	// corruptExpected perturbs one expected result, so the self-test can
	// check that the correctness gate trips.
	corruptExpected bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(opts options, out io.Writer) (*runData, error){
	"session-repeat": runSessionRepeat,
	"fresh-shapes":   runFreshShapes,
	"daemon-tenants": runDaemonTenants,
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("secbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: session-repeat, fresh-shapes or daemon-tenants")
	seed := fs.Int64("seed", 1, "seed of TPC-H generation and query order")
	seconds := fs.Int("seconds", 30, "work per run: as many whole query cycles as take about this many seconds on a 2-core machine")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics and writes a Chrome trace; 0 prints end-to-end metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/traces/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "secbench: need --workload session-repeat|fresh-shapes|daemon-tenants, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		traceOut: *traceOut,
	}
	if opts.trace && opts.traceOut == "" {
		opts.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed))
	}
	res, err := run(opts, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "secbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "secbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one workload and derives the metrics of the chosen mode.
// An error means the harness itself could not run; query failures are
// reported in the result instead.
func run(opts options, out io.Writer) (*result, error) {
	printProvenance(out, opts)
	data, err := workloads[opts.workload](opts, out)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: len(data.queries),
		Failed:    data.failed(),
	}
	res.Correct = res.Failed == 0 && len(data.runFailures) == 0 && res.Attempted > 0
	for _, f := range data.runFailures {
		fmt.Fprintf(out, "FAIL run: %s\n", f)
	}
	for _, q := range data.queries {
		for _, f := range q.failures {
			fmt.Fprintf(out, "FAIL %s (%s): %s\n", q.label, q.tenant, f)
		}
	}
	if opts.trace {
		res.Metrics = layerMetrics(data)
		if err := writeChromeTrace(opts.traceOut, data.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "chrome trace: %s (%d spans)\n", opts.traceOut, len(data.spans))
	} else {
		res.Metrics = endToEndMetrics(data, out)
	}
	printMetrics(out, res.Metrics)
	return res, nil
}
