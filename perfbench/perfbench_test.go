package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinySizes keep a whole run of every workload to a few seconds.
var tinySizes = sizes{TPCHSF: 0.001, RubisScale: 0.05, SetupBuilds: 1, RubisSteps: 10, OracleKeys: 2}

var workloads = []string{"tpch-invoke", "tpch-scan", "rubis-tcp-rw"}

type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs a workload at tiny sizes and decodes the result line.
func runTiny(t *testing.T, workload string, traced, wrongRef bool) result {
	t.Helper()
	cfg := config{Workload: workload, Seed: 7, Seconds: 0.3, Trace: traced,
		WorkDir: t.TempDir(), Sizes: tinySizes, WrongReference: wrongRef}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	rep.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, out.String())
	}
	return res
}

// TestEveryMetricPrints checks that each workload prints exactly the
// metrics BENCHMARK.json names, each with its declared unit, and that
// every result is correct.
func TestEveryMetricPrints(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Work {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark knows %v", names, workloads)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res := runTiny(t, w, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongReferenceFails injects a wrong reference value into every
// oracle: a correct program must then be counted as failing.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range workloads {
		res := runTiny(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong reference not caught: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// TestQuartilesMatchPython pins the spread rule to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
