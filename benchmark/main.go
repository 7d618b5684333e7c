// Command benchmark is the repository's benchmark: it deploys nine Fusion
// storage nodes as tcpnet servers on loopback inside one process, drives a
// store configured with store.FusionOptions through one named workload for
// a fixed time, checks every answer, and prints its metrics.
//
//	go run . --workload scan --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an uninstrumented
// run; with --trace 1 it prints the per-layer metrics of an instrumented
// run. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full report (environment stamp, clocks, sample counts, per-class
// latencies). See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/fusionstore/fusion/internal/datasets"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/tpch"
)

// sizes are the workload dimensions. fullSizes is what the benchmark runs;
// tinySizes exists for the smoke test.
type sizes struct {
	lineitem       tpch.Config
	taxi           datasets.Config
	ingestLineitem tpch.Config
	ingestTaxi     datasets.Config
	mixedObjects   int
	mixedRows      int
	// mixedRate is the mixed workload's fixed offered load, ops/s: about
	// half the highest rate whose get tail stays within mixedGetTailLimit
	// on the reference machine (see README.md). It is a constant so both
	// sides of a comparison see the same offered load.
	mixedRate float64
	// cacheBytes is the one coordinator data-cache budget all workloads
	// share: at most a quarter of scan's working set, larger than mixed's.
	cacheBytes int64
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
}

// mixedGetTailLimit is the latency limit the mixed rate was sized against.
const mixedGetTailLimit = 25 * time.Millisecond

func fullSizes() sizes {
	return sizes{
		lineitem:       tpch.DefaultConfig(),
		taxi:           datasets.TaxiConfig(),
		ingestLineitem: tpch.Config{RowGroups: 4, RowsPerGroup: 10000, Seed: 7, Writer: lpq.DefaultWriterOptions()},
		ingestTaxi:     datasets.Config{RowGroups: 4, RowsPerGroup: 8000, Seed: 11},
		mixedObjects:   32,
		mixedRows:      160,
		mixedRate:      800,
		cacheBytes:     2 << 20,
		setupReps:      3,
	}
}

func tinySizes() sizes {
	return sizes{
		lineitem:       tpch.Config{RowGroups: 2, RowsPerGroup: 3000, Seed: 7, Writer: lpq.DefaultWriterOptions()},
		taxi:           datasets.Config{RowGroups: 2, RowsPerGroup: 3000, Seed: 11},
		ingestLineitem: tpch.Config{RowGroups: 2, RowsPerGroup: 1000, Seed: 7, Writer: lpq.DefaultWriterOptions()},
		ingestTaxi:     datasets.Config{RowGroups: 2, RowsPerGroup: 1000, Seed: 11},
		mixedObjects:   8,
		mixedRows:      40,
		mixedRate:      50,
		cacheBytes:     1 << 20,
		setupReps:      1,
	}
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	// wrap, when set, interposes on the store's surface once preload and
	// warm-up are done (smoke test only).
	wrap func(target) target
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: scan, ingest or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, uninstrumented; 1: per-layer metrics, instrumented")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.sz = fullSizes()
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	res, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep["stamp"] = stamp(cfg)
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// stamp identifies the machine, toolchain and code a result came from.
func stamp(cfg config) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}
