package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"secyan/internal/daemon"
	"secyan/internal/obs"
)

// querySample is one timed query as the harness saw it.
type querySample struct {
	label  string // query@scale
	tenant string // daemon-tenants only
	qid    int
	// key is the plan digest plus the public input sizes: the planner's
	// cost cache is keyed by sizes, and the digest alone is not.
	key  string
	cold bool // key not seen before in this process

	compile time.Duration // core.ExplainOpts; zero on daemon-tenants
	wall    time.Duration // compile plus both parties' execution, or Client.Run

	bytes, rounds int64
	// phaseTime is Alice's step time by protocol phase.
	phaseTime map[string]time.Duration
	// stepWait is Alice's Recv-blocked time inside her steps; recvWait
	// is each party's Recv-blocked time on the query's stream. Session
	// workloads with tracing on only.
	stepWait time.Duration
	recvWait [2]time.Duration

	failures []string
}

func (q *querySample) fail(format string, args ...any) {
	q.failures = append(q.failures, fmt.Sprintf(format, args...))
}

// runData is everything one workload run measured.
type runData struct {
	setup   []time.Duration
	queries []*querySample
	// runFailures break the workload's premise (cache regime) rather
	// than a single query.
	runFailures []string

	before, after probe
	peakHeap      uint64

	// daemon-tenants: daemon state around the window.
	daemonBefore, daemonAfter *daemon.Snapshot

	spans []span
}

func (d *runData) failed() int {
	n := 0
	for _, q := range d.queries {
		if len(q.failures) > 0 {
			n++
		}
	}
	return n
}

// probe is a snapshot of process-wide counters at one instant.
type probe struct {
	at  time.Time
	cpu time.Duration
	obs map[string]any
	rt  []metrics.Sample
}

const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rtHeapBytes  = "/memory/classes/heap/objects:bytes"
)

func takeProbe() probe {
	rt := []metrics.Sample{{Name: rtAllocBytes}, {Name: rtGCCPU}, {Name: rtTotalCPU}}
	metrics.Read(rt)
	return probe{at: time.Now(), cpu: processCPU(), obs: obs.Default().Snapshot(), rt: rt}
}

func (p probe) rtValue(name string) float64 {
	for _, s := range p.rt {
		if s.Name != name {
			continue
		}
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
	}
	return 0
}

// processCPU is the user plus system CPU time of the whole process:
// both protocol parties, the daemon and its farm.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs body as the measured window: it snapshots the counters
// around it and samples the live heap while it runs.
func (d *runData) measure(body func()) {
	stop := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: rtHeapBytes}}
		var max uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	d.before = takeProbe()
	body()
	d.after = takeProbe()
	close(stop)
	d.peakHeap = <-peak
}

func (d *runData) window() time.Duration { return d.after.at.Sub(d.before.at) }

// counter is the window's delta of a plain obs counter.
func (d *runData) counter(name string) float64 {
	a, _ := d.after.obs[name].(int64)
	b, _ := d.before.obs[name].(int64)
	return float64(a - b)
}

// hist is the window's delta of an obs histogram's count and sum.
func (d *runData) hist(name string) (count, sum float64) {
	a, _ := d.after.obs[name].(map[string]int64)
	b, _ := d.before.obs[name].(map[string]int64)
	return float64(a["count"] - b["count"]), float64(a["sum"] - b["sum"])
}

// histVec is hist summed over every label set of an obs histogram vec.
func (d *runData) histVec(name string) (count, sum float64) {
	a, _ := d.after.obs[name].(map[string]map[string]int64)
	b, _ := d.before.obs[name].(map[string]map[string]int64)
	for k, v := range a {
		count += float64(v["count"] - b[k]["count"])
		sum += float64(v["sum"] - b[k]["sum"])
	}
	return count, sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median of xs (interpolating between the middle two of an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hdMedian is the Harrell–Davis estimate of the median of xs: a
// weighted mean of all order statistics, the i-th of n weighted by the
// Beta((n+1)/2, (n+1)/2) probability of ((i-1)/n, i/n]. On daemon-tenants
// half the queries wait for the slot and half do not, so latencies form
// two clusters of equal size and the sample median is the mean of the
// two samples at their facing edges; the weighted mean draws on the
// samples around them too and holds much stiller between runs.
func hdMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a := (n + 1) / 2
	var v, prev float64
	for i, x := range s {
		cdf := betaInc(a, a, float64(i+1)/n)
		v += (cdf - prev) * x
		prev = cdf
	}
	return v
}

// betaInc is the regularized incomplete beta function I_x(a, b), by
// the continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of betaInc by Lentz's method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 500; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it: the (n-10)-th smallest of n samples, at percentile
// 100(n-10)/n. Below 20 samples that percentile would fall under the
// median, so tail returns the maximum instead, with zero samples beyond
// it, and the caller says so.
func tail(xs []float64) (v, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n < 20 {
		return s[n-1], 100, 0
	}
	k := n - 10
	return s[k-1], 100 * float64(k) / float64(n), 10
}

// endToEndMetrics derives the user-visible metrics of an untraced run
// and prints the tail percentile and failure fraction beside them.
func endToEndMetrics(d *runData, out io.Writer) map[string]metric {
	n := float64(len(d.queries))
	walls := make([]float64, 0, len(d.queries))
	var bytes, rounds float64
	for _, q := range d.queries {
		walls = append(walls, q.wall.Seconds())
		bytes += float64(q.bytes)
		rounds += float64(q.rounds)
	}
	setup := make([]float64, 0, len(d.setup))
	for _, s := range d.setup {
		setup = append(setup, s.Seconds())
	}
	tv, tp, beyond := tail(walls)
	if beyond == 0 {
		fmt.Fprintf(out, "query_tail_s: maximum of %d samples (under 20, so no percentile at or above the median has ten beyond it)\n", len(walls))
	} else {
		fmt.Fprintf(out, "query_tail_s: p%.1f of %d samples (%d beyond it)\n", tp, len(walls), beyond)
	}
	fmt.Fprintf(out, "failed_frac: %.4f (%d of %d queries)\n", ratio(float64(d.failed()), n), d.failed(), len(d.queries))
	fmt.Fprintf(out, "setup_s: median of %d set-ups\n", len(setup))
	return map[string]metric{
		"setup_s":            {median(setup), "s"},
		"query_p50_s":        {hdMedian(walls), "s"},
		"query_tail_s":       {tv, "s"},
		"queries_per_s":      {ratio(n, d.window().Seconds()), "1/s"},
		"cpu_s_per_query":    {ratio((d.after.cpu - d.before.cpu).Seconds(), n), "s"},
		"comm_mb_per_query":  {ratio(bytes/1e6, n), "MB"},
		"rounds_per_query":   {ratio(rounds, n), "count"},
		"alloc_mb_per_query": {ratio((d.after.rtValue(rtAllocBytes)-d.before.rtValue(rtAllocBytes))/1e6, n), "MB"},
		"peak_heap_mb":       {float64(d.peakHeap) / 1e6, "MB"},
	}
}

// stepPhases are the plan phases core.PlanStep.Phase takes.
var stepPhases = []string{"setup", "input", "reduce", "semijoin", "join", "aggregate", "reveal"}

// layerMetrics derives the per-layer metrics of a traced run. Metrics of
// a layer the workload does not reach read 0; README.md says which.
func layerMetrics(d *runData) map[string]metric {
	n := float64(len(d.queries))
	per := func(v float64) float64 { return ratio(v, n) }
	var compile, wall, steps, wait time.Duration
	var recvWait [2]time.Duration
	cold := 0.0
	phase := map[string]time.Duration{}
	for _, q := range d.queries {
		compile += q.compile
		wall += q.wall
		wait += q.stepWait
		recvWait[0] += q.recvWait[0]
		recvWait[1] += q.recvWait[1]
		if q.cold {
			cold++
		}
		for p, t := range q.phaseTime {
			phase[p] += t
			steps += t
		}
	}
	m := map[string]metric{
		"core.compile_s":               {per(compile.Seconds()), "s"},
		"core.compile_cold_per_query":  {per(cold), "count"},
		"core.step_wait_s":             {per(wait.Seconds()), "s"},
		"core.step_self_s":             {per((steps - wait).Seconds()), "s"},
		"core.unattributed_frac":       {1 - ratio((compile+steps).Seconds(), wall.Seconds()), "fraction"},
		"harness.traced_queries_per_s": {ratio(n, d.window().Seconds()), "1/s"},
	}
	for _, p := range stepPhases {
		m["core.step_s."+p] = metric{per(phase[p].Seconds()), "s"}
	}

	baseCalls, baseNs := d.hist("secyan_ot_base_ns")
	_, extNs := d.hist("secyan_ot_ext_ns")
	_, bins := d.hist("secyan_psi_bins")
	_, garbleNs := d.hist("secyan_gc_garble_ns")
	_, evalNs := d.hist("secyan_gc_evaluate_ns")
	hits, misses := d.counter("secyan_ot_pool_hit_total"), d.counter("secyan_ot_pool_miss_total")
	m["ot.base_setups_per_query"] = metric{per(baseCalls), "count"}
	m["ot.base_call_s"] = metric{per(baseNs / 1e9), "s"}
	m["ot.ext_ots_per_query"] = metric{per(d.counter("secyan_ot_ext_total")), "count"}
	m["ot.ext_call_s"] = metric{per(extNs / 1e9), "s"}
	m["ot.pool_hit_frac"] = metric{ratio(hits, hits+misses), "fraction"}
	m["psi.runs_per_query"] = metric{per(d.counter("secyan_psi_runs_total")), "count"}
	m["psi.bins_per_query"] = metric{per(bins), "count"}
	m["psi.padded_slots_per_query"] = metric{per(d.counter("secyan_psi_sender_padded_slots_total")), "count"}
	m["gc.and_garbled_per_query"] = metric{per(d.counter("secyan_gc_and_gates_garbled_total")), "count"}
	m["gc.garble_call_s"] = metric{per(garbleNs / 1e9), "s"}
	m["gc.and_evaluated_per_query"] = metric{per(d.counter("secyan_gc_and_gates_evaluated_total")), "count"}
	m["gc.eval_call_s"] = metric{per(evalNs / 1e9), "s"}
	m["gc.circuits_corrected_per_query"] = metric{per(d.counter("secyan_gc_circuits_corrected_total")), "count"}
	m["parallel.busy_frac"] = metric{ratio(d.counter("secyan_parallel_busy_ns_total"), d.counter("secyan_parallel_span_ns_total")), "fraction"}
	m["transport.recv_wait_s.alice"] = metric{per(recvWait[0].Seconds()), "s"}
	m["transport.recv_wait_s.bob"] = metric{per(recvWait[1].Seconds()), "s"}
	m["transport.msgs_per_query"] = metric{per(d.counter("secyan_transport_msgs_sent_total")), "count"}
	m["transport.mux_overhead_bytes_per_query"] = metric{per(d.counter("secyan_mux_control_bytes_total")), "bytes"}
	gcCPU := d.after.rtValue(rtGCCPU) - d.before.rtValue(rtGCCPU)
	totalCPU := d.after.rtValue(rtTotalCPU) - d.before.rtValue(rtTotalCPU)
	m["runtime.gc_cpu_frac"] = metric{ratio(gcCPU, totalCPU), "fraction"}

	var hitRate, builds, waitS, estOverMeasured float64
	if d.daemonBefore != nil && d.daemonAfter != nil {
		fb, fa := d.daemonBefore.Farm, d.daemonAfter.Farm
		h := float64(fa.HitsOffline + fa.HitsCircuits - fb.HitsOffline - fb.HitsCircuits)
		hitRate = ratio(h, h+float64(fa.Misses-fb.Misses))
		builds = per(float64(shapeBuilds(fa) - shapeBuilds(fb)))
		waits, waitNs := d.histVec("secyan_daemon_queue_wait_ns")
		waitS = ratio(waitNs/1e9, waits)
		est, meas := tenantBytes(d.daemonAfter)
		est0, meas0 := tenantBytes(d.daemonBefore)
		estOverMeasured = ratio(float64(est-est0), float64(meas-meas0))
	}
	m["daemon.farm_hit_rate"] = metric{hitRate, "fraction"}
	m["daemon.farm_builds_per_query"] = metric{builds, "count"}
	m["daemon.queue_wait_s"] = metric{waitS, "s"}
	m["daemon.est_over_measured_bytes"] = metric{estOverMeasured, "ratio"}
	return m
}

func shapeBuilds(f daemon.FarmStatus) int64 {
	var n int64
	for _, s := range f.Shapes {
		n += s.Builds
	}
	return n
}

func tenantBytes(s *daemon.Snapshot) (est, measured int64) {
	for _, t := range s.Tenants {
		est += t.EstBytesCharged
		measured += t.MeasuredBytes
	}
	return est, measured
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printProvenance records what produced the numbers.
func printProvenance(out io.Writer, opts options) {
	commit, modified := "unknown (not built from a git checkout)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = " (modified)"
				}
			}
		}
	}
	host, _ := os.Hostname()
	fmt.Fprintf(out, "workload %s seed %d seconds %.0f trace %v\n", opts.workload, opts.seed, opts.seconds.Seconds(), opts.trace)
	fmt.Fprintf(out, "commit %s%s nproc %d GOMAXPROCS %d go %s host %s\n",
		commit, modified, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), host)
}

// span is one interval of the benchmark's own Chrome trace.
type span struct {
	name, cat  string
	tid        int
	qid        int
	start, end time.Time
}

// Chrome trace tracks.
const (
	tidHarness   = 0
	tidAlice     = 1
	tidBob       = 2
	tidAliceRecv = 3
	tidBobRecv   = 4
	tidTenant0   = 10
)

// spanLog collects spans from several goroutines.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s ...span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s...)
	l.mu.Unlock()
}
