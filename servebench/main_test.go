package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the self-test pins.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkMetrics fails unless the result line's metrics are exactly want,
// with the same units.
func checkMetrics(t *testing.T, line string, want []metricDef) {
	t.Helper()
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted int64 `json:"attempted"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted < 1 {
		t.Errorf("result line %q: want correct and attempted >= 1", line)
	}
	if len(got.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, BENCHMARK.json names %d", len(got.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := got.Metrics[d.name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("metric %s missing from the result line", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the program: the same
// workloads and the same metric names and units, in the same order.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	pin := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i, d := range prog {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	pin("end_to_end", bf.EndToEnd, endToEnd)
	pin("per_layer", bf.PerLayer, perLayer)
}

// TestSelfTest runs every workload once at tiny scale, untraced and traced,
// and checks that the correctness gate passes and that both result lines
// carry exactly the metrics BENCHMARK.json names.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			opt := options{
				seed: 42, warmup: 200 * time.Millisecond, window: 500 * time.Millisecond,
				setups: 2, tmpDir: t.TempDir(), traceDir: t.TempDir(), out: &out,
			}
			res, err := run(context.Background(), w, opt, true)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if len(res.problems) > 0 {
				t.Fatalf("correctness gate failed: %v\n%s", res.problems, out.String())
			}
			e2e, err := resultLine(res, false)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, e2e, endToEnd)
			layer, err := resultLine(res, true)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, layer, perLayer)
		})
	}
}
