package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/store"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.4, trace: trace, sz: tinySizes()}
}

func names(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" ["+m.Unit+"]")
	}
	sort.Strings(out)
	return out
}

func printed(res *result) []string {
	var out []string
	for name, m := range res.Metrics {
		out = append(out, name+" ["+m.Unit+"]")
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsPrintSpecMetrics runs every workload of BENCHMARK.json at a
// tiny size in both modes: each must answer correctly and print exactly the
// metrics, with the units, that BENCHMARK.json names for that mode.
func TestWorkloadsPrintSpecMetrics(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, _, err := run(tinyConfig(w.Name, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := names(spec.EndToEnd)
			if traced {
				want = names(spec.PerLayer)
			}
			if got := printed(res); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s trace=%v prints\n%v\nBENCHMARK.json names\n%v", w.Name, traced, got, want)
			}
		}
	}
}

// TestReadmeDocumentsEveryMetric keeps README.md's metric tables in step
// with BENCHMARK.json.
func TestReadmeDocumentsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	doc, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !strings.Contains(string(doc), "`"+m.Name+"`") {
			t.Errorf("README.md does not document %s", m.Name)
		}
	}
}

// corruptTarget flips one byte of every nth Get or Query response, past
// every checksum the store keeps.
type corruptTarget struct {
	target
	n int

	mu   sync.Mutex
	seen int
}

func (c *corruptTarget) hit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	return c.seen%c.n == 0
}

func (c *corruptTarget) Get(ctx context.Context, name string, offset, length uint64) ([]byte, error) {
	data, err := c.target.Get(ctx, name, offset, length)
	if err == nil && len(data) > 0 && c.hit() {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x01
	}
	return data, err
}

func (c *corruptTarget) Query(ctx context.Context, q string) (*store.Result, error) {
	res, err := c.target.Query(ctx, q)
	if err != nil || !c.hit() {
		return res, err
	}
	out := *res
	switch {
	case len(out.AggValues) > 0:
		out.AggValues = append([]sql.Literal(nil), out.AggValues...)
		v := &out.AggValues[0]
		v.I ^= 1
		v.F += 1
	case len(out.Data) > 0:
		out.Data = append([]lpq.ColumnData(nil), out.Data...)
		col := out.Data[0]
		switch {
		case len(col.Ints) > 0:
			col.Ints = append([]int64(nil), col.Ints...)
			col.Ints[0] ^= 1
		case len(col.Floats) > 0:
			col.Floats = append([]float64(nil), col.Floats...)
			col.Floats[0] += 1
		case len(col.Strings) > 0:
			col.Strings = append([]string(nil), col.Strings...)
			col.Strings[0] += "x"
		}
		out.Data[0] = col
	}
	return &out, nil
}

// TestCorruptionFailsRun proves the correctness checks bite: with one
// response in three of the measured window corrupted, every workload's run
// completes and reports correct=false.
func TestCorruptionFailsRun(t *testing.T) {
	for name := range workloads {
		cfg := tinyConfig(name, false)
		cfg.wrap = func(tg target) target { return &corruptTarget{target: tg, n: 3} }
		res, rep, err := run(cfg)
		if err != nil {
			t.Errorf("%s: run failed instead of reporting the mismatches: %v", name, err)
			continue
		}
		t.Logf("%s: correct=%v mismatches %v", name, res.Correct, rep["mismatches"])
		if res.Correct {
			t.Errorf("%s: a run with corrupted responses passed (attempted %d)", name, res.Attempted)
		}
	}
}
