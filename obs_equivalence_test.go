package secyan

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"
	"time"

	"secyan/internal/core"
	"secyan/internal/obs"
)

// TestTranscriptEquivalenceWithObservability is the observability
// counterpart of the worker-count equivalence test: a fully-observed
// query run — metrics collection enabled, a tracer installed with both
// parties emitting spans, the structured event log mirroring to a JSON
// sink, and the flight recorder retaining records — must produce
// byte-identical transport statistics and identical results to an
// unobserved run. Observation reads clocks and writes process-local
// memory only — it must never touch the wire.
func TestTranscriptEquivalenceWithObservability(t *testing.T) {
	_, _, _, build := exampleQuery()

	type outcome struct {
		result         []string
		aStats, bStats Stats
	}
	run := func(observed bool) outcome {
		if observed {
			obs.Enable()
			tracer := obs.NewTracer()
			obs.Install(tracer)
			lg := obs.Events()
			lg.SetJSONSink(io.Discard)
			obs.Flight().Reset()
			defer func() {
				lg.SetJSONSink(nil)
				lg.Disable()
				lg.Reset()
				obs.Flight().Reset()
				obs.Install(nil)
				obs.Disable()
			}()
			alice, bob := LocalParties(DefaultRing)
			defer alice.Conn.Close()
			defer bob.Conn.Close()
			alice.Track = tracer.Track("Alice")
			bob.Track = tracer.Track("Bob")
			res, _, err := Run2PC(alice, bob,
				func(p *Party) (*Relation, error) { return Run(p, build(Alice)) },
				func(p *Party) (*Relation, error) { return Run(p, build(Bob)) },
			)
			if err != nil {
				t.Fatalf("observed run: %v", err)
			}
			return outcome{resultKey(res), alice.Conn.Stats(), bob.Conn.Stats()}
		}
		alice, bob := LocalParties(DefaultRing)
		defer alice.Conn.Close()
		defer bob.Conn.Close()
		res, _, err := Run2PC(alice, bob,
			func(p *Party) (*Relation, error) { return Run(p, build(Alice)) },
			func(p *Party) (*Relation, error) { return Run(p, build(Bob)) },
		)
		if err != nil {
			t.Fatalf("unobserved run: %v", err)
		}
		return outcome{resultKey(res), alice.Conn.Stats(), bob.Conn.Stats()}
	}

	ref := run(false)
	got := run(true)
	if len(got.result) != len(ref.result) {
		t.Fatalf("observed run: %d result tuples, unobserved %d", len(got.result), len(ref.result))
	}
	for i := range ref.result {
		if got.result[i] != ref.result[i] {
			t.Fatalf("observed result row %q, unobserved %q", got.result[i], ref.result[i])
		}
	}
	if got.aStats != ref.aStats {
		t.Fatalf("observed alice stats %+v, unobserved %+v", got.aStats, ref.aStats)
	}
	if got.bStats != ref.bStats {
		t.Fatalf("observed bob stats %+v, unobserved %+v", got.bStats, ref.bStats)
	}
}

// chromeDump is the subset of the Chrome trace-event envelope the
// consistency test reads back.
type chromeDump struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

// TestChromeTraceMatchesTrace cross-checks the two observability
// surfaces against each other: the step spans of the exported Chrome
// trace must sum (within rounding) to the wall time the Trace measured,
// and every kernel span (gc, ot, psi) must nest inside a plan-step span
// on its own track.
func TestChromeTraceMatchesTrace(t *testing.T) {
	_, _, _, build := exampleQuery()

	tracer := obs.NewTracer()
	obs.Install(tracer)
	defer obs.Install(nil)

	alice, bob := LocalParties(DefaultRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	alice.Track = tracer.Track("Alice")
	bob.Track = tracer.Track("Bob")

	type ares struct {
		res *Relation
		tr  *core.Trace
	}
	a, _, err := Run2PC(alice, bob,
		func(p *Party) (ares, error) {
			res, tr, err := core.RunContext(context.Background(), p, build(Alice))
			return ares{res, tr}, err
		},
		func(p *Party) (ares, error) {
			res, tr, err := core.RunContext(context.Background(), p, build(Bob))
			return ares{res, tr}, err
		},
	)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var dump chromeDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	// Alice's track has tid 0 (created first). Sum her step spans and
	// compare against the Trace's summed wall time.
	var stepSumUs float64
	var steps int
	type iv struct{ start, end float64 }
	stepIvs := map[int][]iv{}
	for _, ev := range dump.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Cat == "step" {
			stepIvs[ev.Tid] = append(stepIvs[ev.Tid], iv{ev.Ts, ev.Ts + ev.Dur})
			if ev.Tid == 0 {
				stepSumUs += ev.Dur
				steps++
			}
		}
	}
	// The trace's records are its Steps plus, when the plan uses OT
	// extension, the Setup record of its base OTs.
	records := a.tr.Steps
	if a.tr.Setup != nil {
		records = append([]core.TraceStep{*a.tr.Setup}, records...)
	}
	if steps != len(records) {
		t.Fatalf("Alice's track has %d step spans, Trace has %d records", steps, len(records))
	}
	var traceUs float64
	for _, s := range records {
		traceUs += float64(s.Elapsed) / float64(time.Microsecond)
	}
	diff := stepSumUs - traceUs
	if diff < 0 {
		diff = -diff
	}
	// Both numbers bracket the same exec calls with separate clock reads;
	// allow a small per-step skew before calling it a disagreement.
	if tol := 0.05*traceUs + 1000*float64(steps); diff > tol {
		t.Fatalf("step spans sum to %.0fµs, Trace wall time %.0fµs (diff %.0fµs > tol %.0fµs)",
			stepSumUs, traceUs, diff, tol)
	}

	// Every kernel span nests inside some step span of its own track.
	kernels := 0
	for _, ev := range dump.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "gc", "ot", "psi":
		default:
			continue
		}
		kernels++
		contained := false
		for _, s := range stepIvs[ev.Tid] {
			if s.start <= ev.Ts && ev.Ts+ev.Dur <= s.end {
				contained = true
				break
			}
		}
		if !contained {
			t.Fatalf("kernel span %s/%s [%.1f, %.1f] on tid %d is not nested in any step span",
				ev.Cat, ev.Name, ev.Ts, ev.Ts+ev.Dur, ev.Tid)
		}
	}
	if kernels == 0 {
		t.Fatal("trace contains no kernel spans; instrumentation is not wired")
	}
	if a.res == nil {
		t.Fatal("Alice received no result")
	}
}
