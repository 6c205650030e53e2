package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"secyan/internal/core"
	"secyan/internal/daemon"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/queries"
	"secyan/internal/tpch"
)

// daemonTenants are the two equal-quota tenants of daemon-tenants.
var daemonTenants = []string{"tenant-a", "tenant-b"}

// queryTimeout bounds one daemon query; a run that hits it has failed.
const queryTimeout = 2 * time.Minute

// daemonRig is secyand in this process with one connected client per
// tenant.
type daemonRig struct {
	d       *daemon.Daemon
	ln      net.Listener
	served  chan error
	clients []*daemon.Client
}

// startDaemon starts the daemon (one slot, default farm) and welcomes
// every tenant.
func startDaemon(db *tpch.DB) (*daemonRig, error) {
	quotas := map[string]daemon.Quota{}
	for _, t := range daemonTenants {
		quotas[t] = daemon.Quota{Weight: 1}
	}
	d, err := daemon.New(daemon.Config{Catalog: daemon.TPCHCatalog(db), Slots: 1, Tenants: quotas})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &daemonRig{d: d, ln: ln, served: make(chan error, 1)}
	go func() { s.served <- d.Serve(ln) }()
	catalog := daemon.TPCHCatalog(db)
	for _, t := range daemonTenants {
		c, err := daemon.Dial(ln.Addr().String(), t, catalog, daemon.ClientConfig{})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial as %s: %w", t, err)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// close says goodbye from every client, drains the daemon and waits for
// its accept loop to end.
func (s *daemonRig) close() {
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.d.Shutdown(ctx)
	s.ln.Close()
	<-s.served
}

// flightMatcher pairs each finished Client.Run with the flight record of
// its Alice side: a tenant has one query outstanding, so its newest
// unclaimed Alice record is the one that just finished.
type flightMatcher struct {
	mu      sync.Mutex
	claimed map[uint64]bool
}

func (m *flightMatcher) claim(tenant string) (obs.QueryRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range obs.Flight().Records() { // newest first
		if r.Party == mpc.Alice.String() && r.Tenant == tenant && !m.claimed[r.QID] {
			m.claimed[r.QID] = true
			return r, true
		}
	}
	return obs.QueryRecord{}, false
}

// runDaemonTenants serves two equal-quota tenants from an in-process
// secyand with one slot; each tenant is a closed-loop client cycling
// Q10, Q10, Q3 at 0.02 MB.
func runDaemonTenants(opts options, out io.Writer) (*runData, error) {
	scale := 0.02
	if opts.toy {
		scale = 0.01
	}
	db := generate(scale, opts.seed)
	jobs := map[string]*job{}
	for _, spec := range []queries.Spec{queries.Q10(), queries.Q3()} {
		j, err := newJob(spec, scale, db)
		if err != nil {
			return nil, err
		}
		jobs[spec.Name] = j
	}
	if opts.corruptExpected {
		jobs["Q10"].corrupt()
	}
	// Each tenant's cycle is Q10, Q10, Q3, started where the seed says.
	// With one slot, a tenant's queries alternate between waiting for
	// the slot (warmed by the farm) and finding it free (served from
	// inventory). A two-query cycle would lock that alternation to one
	// query each, and the start would pick which one, so whole runs
	// would fall into one of two regimes. Over an even number of
	// three-query cycles every query meets both paths equally, whatever
	// the start.
	cycles := make([][]string, len(daemonTenants))
	for i := range daemonTenants {
		base := []string{"Q10", "Q10", "Q3"}
		r := int(uint64(opts.seed+int64(i)) % uint64(len(base)))
		cycles[i] = append(base[r:], base[:r]...)
	}
	obs.Flight().SetCapacity(4096)

	d := &runData{}
	var spans *spanLog
	if opts.trace {
		spans = &spanLog{}
	}
	var s *daemonRig
	var open span
	runtime.GC()
	for i := 0; i < setupWarm+setupReps; i++ {
		if s != nil {
			s.close()
		}
		time.Sleep(setupPause)
		start := time.Now()
		var err error
		if s, err = startDaemon(db); err != nil {
			return nil, err
		}
		end := time.Now()
		if i >= setupWarm {
			d.setup = append(d.setup, end.Sub(start))
		}
		open = span{name: "daemon-open", cat: "setup", tid: tidHarness, start: start, end: end}
	}
	defer s.close()
	spans.add(open)

	matcher := &flightMatcher{claimed: map[uint64]bool{}}
	plans := map[string]*core.Plan{}
	var qid int
	var mu sync.Mutex // guards qid and the sample slice
	runOne := func(ti int, name string, record func(*querySample)) {
		j := jobs[name]
		mu.Lock()
		qid++
		q := &querySample{label: j.label, tenant: daemonTenants[ti], qid: qid, phaseTime: map[string]time.Duration{}}
		mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
		start := time.Now()
		rel, err := s.clients[ti].Run(ctx, daemon.RunSpec{Name: name, Deadline: queryTimeout})
		end := time.Now()
		cancel()
		q.wall = end.Sub(start)
		if err != nil {
			q.fail("run: %v", err)
		} else {
			checkRows(q, j.want, rel)
		}
		rec, ok := matcher.claim(daemonTenants[ti])
		switch {
		case err != nil:
		case !ok:
			q.fail("no flight record")
		default:
			q.bytes, q.rounds = rec.Bytes, rec.Rounds
			for _, ph := range rec.Phases {
				q.phaseTime[ph.Phase] += time.Duration(ph.Seconds * float64(time.Second))
			}
			if plan := plans[name]; plan != nil {
				q.key = shapeKey(plan, j.shape)
				if rec.PlanDigest != plan.DigestString() {
					q.fail("ran plan %s, expected %s", rec.PlanDigest, plan.DigestString())
				}
				// A query the farm warmed moved its offline part before
				// admission, so only the online estimate is left.
				if rec.Bytes != plan.EstBytes && rec.Bytes != plan.EstOnlineBytes {
					q.fail("moved %d bytes, its plan estimates %d (online %d)", rec.Bytes, plan.EstBytes, plan.EstOnlineBytes)
				}
			}
		}
		if spans != nil {
			tid := tidTenant0 + ti
			spans.add(span{name: "query " + j.label, cat: "query", tid: tid, qid: q.qid, start: start, end: end})
			if ok {
				rs := time.Unix(0, rec.StartUnixNano)
				spans.add(span{name: "run", cat: "core", tid: tid, qid: q.qid, start: rs,
					end: rs.Add(time.Duration(rec.Seconds * float64(time.Second)))})
			}
		}
		record(q)
	}
	// tenants runs every tenant's closed loop concurrently for n whole
	// cycles each.
	tenants := func(n int, record func(*querySample)) {
		start := time.Now()
		var cut atomic.Bool
		var wg sync.WaitGroup
		for ti := range daemonTenants {
			wg.Add(1)
			go func(ti int) {
				defer wg.Done()
				for c := n; c > 0; c-- {
					if overdue(start, opts.seconds) {
						cut.Store(true)
						return
					}
					for _, name := range cycles[ti] {
						runOne(ti, name, record)
					}
				}
			}(ti)
		}
		wg.Wait()
		if cut.Load() {
			cutShort(out, opts.seconds)
		}
	}

	// Warm-up: one untimed cycle per tenant, so the planner and the farm
	// have seen both shapes.
	tenants(1, func(q *querySample) {
		for _, f := range q.failures {
			mu.Lock()
			d.runFailures = append(d.runFailures, fmt.Sprintf("warm-up %s (%s): %s", q.label, q.tenant, f))
			mu.Unlock()
		}
	})
	for name, j := range jobs {
		plan, err := core.ExplainOpts(j.shape, ring.Bits, core.PlanOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s plan: %w", name, err)
		}
		plans[name] = plan
	}

	before := s.d.Snapshot()
	d.measure(func() {
		// An even number of cycles per tenant (see cycles above), each
		// about 5 s on the reference machine.
		tenants(2*units(opts.seconds, 10*time.Second), func(q *querySample) {
			mu.Lock()
			d.queries = append(d.queries, q)
			mu.Unlock()
		})
	})
	after := s.d.Snapshot()
	d.daemonBefore, d.daemonAfter = &before, &after
	if spans != nil {
		d.spans = spans.spans
	}
	printShapes(out, d.queries)
	fmt.Fprintf(out, "farm: hit rate %.3f over the daemon's life\n", after.Farm.HitRate)
	return d, nil
}
