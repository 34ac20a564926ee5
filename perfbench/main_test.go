package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/twolayer/twolayer/internal/datagen"
)

var workloads = []string{"read_mix", "write_durable", "live_sharded_mix"}

// smokeConfig runs a workload at a tiny scale for a fraction of a second.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, seconds: 0.4, trace: trace,
		scale: 0.002, warm: 20 * time.Millisecond, workDir: t.TempDir(),
	}
}

// benchmarkJSON reads the metric declarations in BENCHMARK.json.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []metricDef) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, metricDef{m.Name, m.Unit, m.Better})
	}
	return endToEnd, perLayer
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricJSON
}

func runAndEmit(t *testing.T, cfg config) (*report, string, result) {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := emit(&out, cfg, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return rep, out.String(), res
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", endToEnd, e2e}, {"per_layer", perLayer, layers}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestSmoke runs every workload untraced and traced at a tiny scale: all
// answers are right, every declared metric is printed with its unit,
// and the traced run writes the three spans of every request.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w, trace)
			rep, out, res := runAndEmit(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d/%d: %s", w, trace, res.Correct, res.Failed, res.Attempted, rep.firstErr)
			}
			if rep.vals["failed_frac"] != 0 {
				t.Errorf("%s: failed_frac %g", w, rep.vals["failed_frac"])
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}
			for _, d := range endToEnd {
				if !strings.Contains(out, d.name) {
					t.Errorf("%s: %s not printed", w, d.name)
				}
				if res.Metrics[d.name].Value <= 0 && !trace {
					t.Errorf("%s: end-to-end metric %s is %g", w, d.name, res.Metrics[d.name].Value)
				}
			}
			if trace {
				checkSpans(t, cfg)
			}
		}
	}
}

// checkSpans asserts that every traced request recorded all three spans.
func checkSpans(t *testing.T, cfg config) {
	t.Helper()
	f, err := os.Open(filepath.Join(cfg.workDir, "spans", cfg.workload+"-seed3.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[uint64]map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if names[s.Req] == nil {
			names[s.Req] = map[string]bool{}
		}
		names[s.Req][s.Name] = true
	}
	if len(names) == 0 {
		t.Fatalf("%s: no spans", cfg.workload)
	}
	for req, got := range names {
		for _, n := range spanNames {
			if !got[n] {
				t.Fatalf("%s: request %d lacks span %s", cfg.workload, req, n)
			}
		}
	}
}

// TestCorruptedAnswerFails plants one wrong reference answer in every
// workload and expects the run to report it.
func TestCorruptedAnswerFails(t *testing.T) {
	for _, w := range workloads {
		cfg := smokeConfig(t, w, false)
		cfg.corrupt = true
		_, _, res := runAndEmit(t, cfg)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted reference answer went unnoticed (failed %d/%d)", w, res.Failed, res.Attempted)
		}
	}
}

// TestSeedChangesInputsNotNames runs two seeds: same metric names,
// different request streams.
func TestSeedChangesInputsNotNames(t *testing.T) {
	a := smokeConfig(t, "read_mix", false)
	b := a
	b.seed = 4
	_, _, ra := runAndEmit(t, a)
	_, _, rb := runAndEmit(t, b)
	if len(ra.Metrics) != len(rb.Metrics) {
		t.Fatalf("seed %d prints %d metrics, seed %d prints %d", a.seed, len(ra.Metrics), b.seed, len(rb.Metrics))
	}
	for name := range ra.Metrics {
		if _, ok := rb.Metrics[name]; !ok {
			t.Errorf("seed %d lacks metric %s", b.seed, name)
		}
	}
	ds := datagen.RealLikeDataset(datagen.Roads, 500, dataSeed)
	pa := buildPools(a, ds, ds.Entries, liveMixPools)
	pb := buildPools(b, ds, ds.Entries, liveMixPools)
	if *pa[opWindow][0].q.Window == *pb[opWindow][0].q.Window {
		t.Errorf("seeds %d and %d generate the same first window", a.seed, b.seed)
	}
}
