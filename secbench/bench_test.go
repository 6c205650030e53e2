package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the harness must honour.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func toyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 1, seconds: time.Second, trace: trace, toy: true,
		traceOut: filepath.Join(t.TempDir(), "trace.json")}
}

// TestToyRunsPrintEveryMetric runs each declared workload once at toy
// scale in both modes and checks that exactly the declared metrics come
// out, with their units, and that the traced run writes a Chrome trace.
func TestToyRunsPrintEveryMetric(t *testing.T) {
	d := loadDeclared(t)
	for _, w := range d.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("declared workload %s has no runner", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			opts := toyOptions(t, w.Name, trace)
			var out bytes.Buffer
			res, err := run(opts, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, declared %s", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s is %v", w.Name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
			}
			if trace {
				checkChromeTrace(t, opts.traceOut)
			}
		}
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace %s: %v", path, err)
	}
	queries := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "query" {
			queries++
			if ev.Args["qid"] == nil {
				t.Errorf("query span %s has no qid", ev.Name)
			}
		}
	}
	if queries == 0 {
		t.Errorf("trace %s has no query spans", path)
	}
}

// TestWrongExpectedResultTripsGate perturbs one expected result per
// workload and requires the run to report it as incorrect, and the
// command to exit non-zero on such a result.
func TestWrongExpectedResultTripsGate(t *testing.T) {
	for name := range workloads {
		opts := toyOptions(t, name, false)
		opts.corruptExpected = true
		var out bytes.Buffer
		res, err := run(opts, &out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expected result passed: correct=%v failed=%d\n%s", name, res.Correct, res.Failed, out.String())
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 30; i++ {
		xs = append(xs, float64(i))
	}
	if v, pct, beyond := tail(xs); v != 20 || beyond != 10 || math.Abs(pct-200.0/3) > 1e-9 {
		t.Errorf("tail of 1..30 = %v at p%v with %d beyond", v, pct, beyond)
	}
	if v, _, beyond := tail(xs[:19]); v != 19 || beyond != 0 {
		t.Errorf("tail of 1..19 = %v with %d beyond, want the maximum", v, beyond)
	}
}

func TestUnitsAndRungs(t *testing.T) {
	if got := units(25*time.Second, 7*time.Second); got != 4 {
		t.Errorf("units(25s, 7s) = %d", got)
	}
	if got := units(time.Second, 15*time.Second); got != 1 {
		t.Errorf("units(1s, 15s) = %d", got)
	}
	seen := map[int]bool{}
	for _, k := range freshRungs(false) {
		if seen[k] {
			t.Errorf("rung %d repeats", k)
		}
		seen[k] = true
	}
	if len(seen) != 11 {
		t.Errorf("%d rungs, want 11", len(seen))
	}
}

func TestHDMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{5, 5, 5, 5}, 5},
		// Two equal clusters: symmetric weights land in the middle.
		{[]float64{0, 0, 0, 0, 1, 1, 1, 1}, 0.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 6},
	}
	for _, c := range cases {
		if got := hdMedian(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("hdMedian(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// Against a Beta CDF value with a closed form: I_x(1, b) = 1-(1-x)^b.
	if got, want := betaInc(1, 3.5, 0.3), 1-math.Pow(0.7, 3.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("betaInc(1, 3.5, 0.3) = %v, want %v", got, want)
	}
}
