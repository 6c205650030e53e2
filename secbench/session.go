package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"time"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/queries"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/tpch"
	"secyan/internal/transport"
)

// A run sets up its sessions or daemon setupWarm times untimed, then
// setupReps times timed; setup_s is the median of the timed ones. A
// set-up takes well under a millisecond, and only hundreds of samples
// give a per-run median that holds still from one process to the next.
// Each set-up waits setupPause first, so the previous teardown has
// finished and the set-up starts from an idle process, as an analyst's
// first one does.
const (
	setupWarm  = 20
	setupReps  = 500
	setupPause = time.Millisecond
)

// units is how many whole work units (a query cycle, a ladder pair) a
// run measures: as many as take about the requested seconds on the
// reference machine (2 cores), given the unit's nominal duration there.
// Every run of a workload at the same --seconds thus times the same
// queries: a faster program finishes sooner instead of running more, so
// per-query figures compare like with like across commits, and a unit
// ending near the deadline cannot flip the sample count between runs.
func units(window, nominal time.Duration) int {
	n := int((window + nominal/2) / nominal)
	if n < 1 {
		n = 1
	}
	return n
}

// overdue reports whether a window has run past five times its nominal
// length, the guard that keeps a much slower program inside the run's
// time limit.
func overdue(start time.Time, window time.Duration) bool {
	return time.Since(start) >= 5*window
}

// cutShort is the note a run prints when overdue stopped it early.
func cutShort(out io.Writer, window time.Duration) {
	fmt.Fprintf(out, "window stopped early: over 5x the requested %v\n", window)
}

// ring is the annotation ring of every query (the paper's ℓ = 32).
var ring = share.Ring{}.OrDefault()

// generate makes the TPC-H data of a run. tpch draws 1 to 7 lineitems
// per order, so the lineitem count, a public size, would vary with the
// seed and move every size-driven cost with it. generate makes public
// sizes a function of the scale alone: it draws data seeds from seed
// until lineitem holds at least four rows per order, and cuts it to
// exactly that. The seed then drives only the values.
func generate(scale float64, seed int64) *tpch.DB {
	for attempt := int64(0); ; attempt++ {
		db := tpch.Generate(tpch.Config{ScaleMB: scale, Seed: seed*1000003 + attempt})
		n := 4 * db.Orders.Len()
		if db.Lineitem.Len() >= n {
			db.Lineitem.Tuples = db.Lineitem.Tuples[:n]
			db.Lineitem.Annot = db.Lineitem.Annot[:n]
			return db
		}
	}
}

// job is one query over one generated dataset, prepared before the
// measured window: its public shape and its expected result rows.
type job struct {
	spec  queries.Spec
	db    *tpch.DB
	shape *core.Query
	want  []string
	label string
}

func newJob(spec queries.Spec, scale float64, db *tpch.DB) (*job, error) {
	shape, err := queries.PlanFor(spec, db)
	if err != nil {
		return nil, fmt.Errorf("%s shape: %w", spec.Name, err)
	}
	plain, err := spec.Plain(db, ring.Bits)
	if err != nil {
		return nil, fmt.Errorf("%s plaintext: %w", spec.Name, err)
	}
	return &job{spec: spec, db: db, shape: shape, want: rowsOf(plain),
		label: fmt.Sprintf("%s@%.4fMB", spec.Name, scale)}, nil
}

// corrupt adds a row no query returns to the expected result, so the
// correctness gate must trip.
func (j *job) corrupt() { j.want = append(j.want, "[0]=1") }

// rowsOf renders a relation as sorted "row=annotation" strings, leaving
// out zero-annotated and dummy rows.
func rowsOf(r *relation.Relation) []string {
	out := []string{}
	if r == nil {
		return out
	}
	for i := range r.Tuples {
		if r.Annot[i] == 0 || r.IsDummy(i) {
			continue
		}
		out = append(out, fmt.Sprintf("%v=%d", r.Tuples[i], r.Annot[i]))
	}
	sort.Strings(out)
	return out
}

// checkRows compares a query's result with its plaintext result.
func checkRows(q *querySample, want []string, got *relation.Relation) {
	g := rowsOf(got)
	if len(g) != len(want) {
		q.fail("result has %d rows, the plaintext engine %d", len(g), len(want))
		return
	}
	for i := range g {
		if g[i] != want[i] {
			q.fail("result row %d is %s, the plaintext engine has %s", i, g[i], want[i])
			return
		}
	}
}

// shapeKey names what the planner's cost cache sees of a query: the plan
// digest and the public input sizes.
func shapeKey(plan *core.Plan, shape *core.Query) string {
	sizes := make([]string, len(shape.Inputs))
	for i, in := range shape.Inputs {
		sizes[i] = fmt.Sprintf("%s=%d", in.Name, in.N)
	}
	return plan.DigestString() + "/" + strings.Join(sizes, ",")
}

// loopbackPair opens a TCP connection to ourselves and returns its two
// ends as message transports.
func loopbackPair() (a, b transport.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		<-acc
		return nil, nil, err
	}
	r := <-acc
	if r.err != nil {
		dialed.Close()
		return nil, nil, r.err
	}
	return transport.NewConn(r.c), transport.NewConn(dialed), nil
}

// stepEnd is one Observer record with the time it arrived, which is
// the step's end.
type stepEnd struct {
	mpc.StepTrace
	end time.Time
}

func (s stepEnd) start() time.Time { return s.end.Add(-s.Elapsed) }

// rig is one analyst's session pair: Alice and Bob in this process,
// joined by loopback TCP.
type rig struct {
	a, b  *mpc.Session
	recv  *recvLog // traced runs only
	spans *spanLog // traced runs only

	seen map[string]bool // shape keys compiled in this process
	qid  int
	// pending are byte checks of queries whose join-phase estimate
	// depends on the output size; they re-plan after the window.
	pending []pendingCheck
}

type pendingCheck struct {
	q     *querySample
	j     *job
	out   int
	bytes []int64
}

// openSessions opens a session pair and proves it live with one message
// each way on its first stream: the set-up an analyst pays before the
// first query.
func openSessions(recv *recvLog) (a, b *mpc.Session, err error) {
	ca, cb, err := loopbackPair()
	if err != nil {
		return nil, nil, err
	}
	var cfgA, cfgB mpc.SessionConfig
	if recv != nil {
		cfgA.WrapStream, cfgB.WrapStream = recv.wrap(mpc.Alice), recv.wrap(mpc.Bob)
	}
	a = mpc.NewSession(mpc.Alice, ca, ring, cfgA)
	b = mpc.NewSession(mpc.Bob, cb, ring, cfgB)
	fail := func(err error) (*mpc.Session, *mpc.Session, error) {
		a.Close()
		b.Close()
		return nil, nil, fmt.Errorf("open sessions: %w", err)
	}
	pa, _, err := a.NextParty(mpc.PartyOpts{})
	if err != nil {
		return fail(err)
	}
	defer pa.Conn.Close()
	pb, _, err := b.NextParty(mpc.PartyOpts{})
	if err != nil {
		return fail(err)
	}
	defer pb.Conn.Close()
	echo := make(chan error, 1)
	go func() {
		m, err := pb.Conn.Recv()
		if err == nil {
			err = pb.Conn.Send(m)
		}
		echo <- err
	}()
	if err := pa.Conn.Send([]byte("hello")); err != nil {
		pa.Conn.Close()
		<-echo
		return fail(err)
	}
	if _, err := pa.Conn.Recv(); err != nil {
		pa.Conn.Close()
		<-echo
		return fail(err)
	}
	if err := <-echo; err != nil {
		return fail(err)
	}
	return a, b, nil
}

// startRig sets up the session pair setupWarm+setupReps times,
// recording the timed set-ups, and keeps the last pair for the workload.
func startRig(opts options, d *runData) (*rig, error) {
	r := &rig{seen: map[string]bool{}}
	if opts.trace {
		r.recv, r.spans = newRecvLog(), &spanLog{}
	}
	runtime.GC()
	var open span
	for i := 0; i < setupWarm+setupReps; i++ {
		if r.a != nil {
			r.close()
		}
		time.Sleep(setupPause)
		start := time.Now()
		a, b, err := openSessions(r.recv)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		if i >= setupWarm {
			d.setup = append(d.setup, end.Sub(start))
		}
		open = span{name: "session-open", cat: "setup", tid: tidHarness, start: start, end: end}
		r.a, r.b = a, b
	}
	r.spans.add(open)
	if r.recv != nil {
		// Forget the liveness pings.
		r.recv.take(mpc.Alice, 0)
		r.recv.take(mpc.Bob, 0)
	}
	return r, nil
}

func (r *rig) close() {
	r.a.Close()
	r.b.Close()
}

// query runs one job the way an analyst pays for it: compile the plan,
// then both parties execute it on a fresh stream of the session.
func (r *rig) query(j *job) *querySample {
	r.qid++
	q := &querySample{label: j.label, qid: r.qid, phaseTime: map[string]time.Duration{}}
	t0 := time.Now()
	plan, err := core.ExplainOpts(j.shape, ring.Bits, core.PlanOptions{})
	t1 := time.Now()
	q.compile = t1.Sub(t0)
	if err != nil {
		q.wall = q.compile
		q.fail("compile: %v", err)
		return q
	}
	q.key = shapeKey(plan, j.shape)
	q.cold = !r.seen[q.key]
	r.seen[q.key] = true

	pa, ida, err := r.a.NextParty(mpc.PartyOpts{})
	if err != nil {
		q.fail("alice stream: %v", err)
		return q
	}
	pb, idb, err := r.b.NextParty(mpc.PartyOpts{})
	if err != nil {
		pa.Conn.Close()
		q.fail("bob stream: %v", err)
		return q
	}
	var stepsA, stepsB []stepEnd
	pa.Observer = func(st mpc.StepTrace) { stepsA = append(stepsA, stepEnd{st, time.Now()}) }
	pb.Observer = func(st mpc.StepTrace) { stepsB = append(stepsB, stepEnd{st, time.Now()}) }
	bobErr := make(chan error, 1)
	go func() {
		_, err := j.spec.SecureOpts(pb, j.db, core.ExecOptions{})
		if err != nil {
			pb.Conn.Close()
		}
		bobErr <- err
	}()
	rel, errA := j.spec.SecureOpts(pa, j.db, core.ExecOptions{})
	if errA != nil {
		pa.Conn.Close()
	}
	errB := <-bobErr
	t2 := time.Now()
	q.wall = t2.Sub(t0)
	pa.Conn.Close()
	pb.Conn.Close()
	if errA != nil {
		q.fail("alice: %v", errA)
	}
	if errB != nil {
		q.fail("bob: %v", errB)
	}

	var recvA, recvB []interval
	if r.recv != nil {
		recvA, recvB = r.recv.take(mpc.Alice, ida), r.recv.take(mpc.Bob, idb)
		q.recvWait = [2]time.Duration{total(recvA), total(recvB)}
	}
	for _, s := range stepsA {
		q.bytes += s.Bytes
		q.rounds += s.Rounds
		q.phaseTime[s.Phase] += s.Elapsed
		q.stepWait += overlap(recvA, s.start(), s.end)
	}
	if errA == nil && errB == nil {
		checkRows(q, j.want, rel)
		r.checkBytes(q, j, plan, stepsA)
	}
	if r.spans != nil {
		r.spans.add(
			span{name: "compile", cat: "core", tid: tidHarness, qid: q.qid, start: t0, end: t1},
			span{name: "query " + j.label, cat: "query", tid: tidHarness, qid: q.qid, start: t0, end: t2})
		for _, steps := range []struct {
			tid int
			s   []stepEnd
		}{{tidAlice, stepsA}, {tidBob, stepsB}} {
			for _, s := range steps.s {
				r.spans.add(span{name: s.Phase + "/" + s.Op + "[" + s.Node + "]", cat: "step",
					tid: steps.tid, qid: q.qid, start: s.start(), end: s.end})
			}
		}
		for _, iv := range recvA {
			r.spans.add(span{name: "recv", cat: "transport", tid: tidAliceRecv, qid: q.qid, start: iv.start, end: iv.end})
		}
		for _, iv := range recvB {
			r.spans.add(span{name: "recv", cat: "transport", tid: tidBobRecv, qid: q.qid, start: iv.start, end: iv.end})
		}
	}
	return q
}

// checkBytes holds each executed step to its plan's byte estimate. The
// estimates are exact given the true output size; when a join-phase step
// misses the size-0 estimate the check re-plans after the window with
// the size the local join reported.
func (r *rig) checkBytes(q *querySample, j *job, plan *core.Plan, steps []stepEnd) {
	if len(steps) != len(plan.Steps) {
		q.fail("%d steps executed, the plan has %d", len(steps), len(plan.Steps))
		return
	}
	out := 0
	bytes := make([]int64, len(steps))
	exact := true
	for i, s := range steps {
		bytes[i] = s.Bytes
		if s.Op == "local-join" {
			out = s.N
		}
		if s.Bytes != plan.Steps[i].EstBytes {
			exact = false
		}
	}
	switch {
	case exact:
	case out > 0:
		r.pending = append(r.pending, pendingCheck{q: q, j: j, out: out, bytes: bytes})
	default:
		compareBytes(q, plan, bytes)
	}
}

func compareBytes(q *querySample, plan *core.Plan, bytes []int64) {
	for i, st := range plan.Steps {
		if bytes[i] != st.EstBytes {
			q.fail("step %s/%s[%s] moved %d bytes, its plan estimates %d", st.Phase, st.Op, st.Node, bytes[i], st.EstBytes)
		}
	}
}

// finish runs the deferred byte checks and hands the rig's spans to d.
func (r *rig) finish(d *runData) {
	for _, p := range r.pending {
		plan, err := core.ExplainOpts(p.j.shape, ring.Bits, core.PlanOptions{EstOut: p.out})
		if err != nil {
			p.q.fail("re-plan for output size %d: %v", p.out, err)
			continue
		}
		compareBytes(p.q, plan, p.bytes)
	}
	if r.spans != nil {
		d.spans = r.spans.spans
	}
}

// runSessionRepeat is one analyst on one session in a closed loop,
// cycling Q3, Q10 and Q18 at 0.06 MB after one untimed warm-up pass.
func runSessionRepeat(opts options, out io.Writer) (*runData, error) {
	scale := 0.06
	if opts.toy {
		scale = 0.01
	}
	d := &runData{}
	r, err := startRig(opts, d)
	if err != nil {
		return nil, err
	}
	defer r.close()
	db := generate(scale, opts.seed)
	specs := []queries.Spec{queries.Q3(), queries.Q10(), queries.Q18()}
	rot := int(uint64(opts.seed) % uint64(len(specs)))
	var cycle []*job
	for i := range specs {
		j, err := newJob(specs[(i+rot)%len(specs)], scale, db)
		if err != nil {
			return nil, err
		}
		cycle = append(cycle, j)
	}
	if opts.corruptExpected {
		cycle[0].corrupt()
	}

	warm := map[string]bool{}
	for _, j := range cycle {
		q := r.query(j)
		warm[q.key] = true
		for _, f := range q.failures {
			d.runFailures = append(d.runFailures, fmt.Sprintf("warm-up %s: %s", q.label, f))
		}
	}
	if opts.trace {
		obs.Enable()
	}
	d.measure(func() {
		start := time.Now()
		for c := units(opts.seconds, 7*time.Second); c > 0; c-- {
			if overdue(start, opts.seconds) {
				cutShort(out, opts.seconds)
				break
			}
			for _, j := range cycle {
				d.queries = append(d.queries, r.query(j))
			}
		}
	})
	r.finish(d)
	for _, q := range d.queries {
		if !warm[q.key] {
			d.runFailures = append(d.runFailures,
				fmt.Sprintf("cache regime: timed %s has shape %s, unseen in the warm-up", q.label, q.key))
		}
	}
	printShapes(out, d.queries)
	return d, nil
}

// freshRungs are the customer counts of the fresh-shapes ladder, in
// the order the queries use them. Every rung is a distinct public size
// (0.027 to 0.093 MB), so no query can reuse a planner cost-cache entry
// of an earlier one. The order starts at the middle rung and steps out
// to both sides; Q3 takes the even positions and climbs while Q18 takes
// the odd ones and descends, so every Q3+Q18 pair costs about the same.
func freshRungs(toy bool) []int {
	lo, hi := 4, 14
	if toy {
		lo, hi = 1, 5
	}
	mid := (lo + hi) / 2
	rungs := []int{mid}
	for d := 1; mid+d <= hi || mid-d >= lo; d++ {
		if mid-d >= lo {
			rungs = append(rungs, mid-d)
		}
		if mid+d <= hi {
			rungs = append(rungs, mid+d)
		}
	}
	return rungs
}

// runFreshShapes is one session in a closed loop over a ladder of
// scales that never repeats a public size, alternating Q3 and Q18.
func runFreshShapes(opts options, out io.Writer) (*runData, error) {
	d := &runData{}
	r, err := startRig(opts, d)
	if err != nil {
		return nil, err
	}
	defer r.close()
	var ladder []*job
	for i, k := range freshRungs(opts.toy) {
		spec := queries.Q3()
		if i%2 == 1 {
			spec = queries.Q18()
		}
		// tpch sizes customer at 150 rows per MB; the epsilon keeps the
		// float product from rounding below k.
		scale := float64(k)/150 + 1e-9
		j, err := newJob(spec, scale, generate(scale, opts.seed))
		if err != nil {
			return nil, err
		}
		ladder = append(ladder, j)
	}
	if opts.corruptExpected {
		ladder[0].corrupt()
	}
	if opts.trace {
		obs.Enable()
	}
	d.measure(func() {
		start := time.Now()
		// Whole Q3+Q18 pairs, so every run weighs both queries alike.
		pairs := units(opts.seconds, 10500*time.Millisecond)
		if 2*pairs > len(ladder) {
			fmt.Fprintf(out, "ladder holds %d queries, fewer than %d pairs\n", len(ladder), pairs)
		}
		for i := 0; i < min(2*pairs, len(ladder)); i += 2 {
			if overdue(start, opts.seconds) {
				cutShort(out, opts.seconds)
				break
			}
			for _, j := range ladder[i:min(i+2, len(ladder))] {
				d.queries = append(d.queries, r.query(j))
			}
		}
	})
	r.finish(d)
	for _, q := range d.queries {
		if !q.cold {
			d.runFailures = append(d.runFailures,
				fmt.Sprintf("cache regime: %s repeats shape %s", q.label, q.key))
		}
	}
	printShapes(out, d.queries)
	return d, nil
}

// printShapes lists each timed query with its shape key and wall time.
func printShapes(out io.Writer, qs []*querySample) {
	for _, q := range qs {
		fmt.Fprintf(out, "query %-16s %-9s compile %7.3fs wall %7.3fs bytes %d shape %s\n",
			q.label, q.tenant, q.compile.Seconds(), q.wall.Seconds(), q.bytes, q.key)
	}
}
