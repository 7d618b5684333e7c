package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// bench is one workload.
type bench interface {
	// corpus generates the workload's inputs from its seed.
	corpus() error
	// load preloads the inputs into a fresh deployment and warms it up.
	load(d *deployment) error
	// reference computes expected answers, once, outside set-up timing.
	reference() error
	// run drives the measured window until the deadline.
	run(d *deployment, rec *recorder, until time.Time, clients int)
	// verify checks the store's final state after the window.
	verify(d *deployment, rec *recorder)
	// liveBytes is the size of the objects the store must keep.
	liveBytes() uint64
	// facts describes the corpus for the report.
	facts() map[string]any
}

// workloadInfo is what differs between workloads beyond their bench.
type workloadInfo struct {
	// tailPct and tailClass define the report's tail latency: that
	// percentile over the successful ops of one class, or of all classes
	// when tailClass is empty. Both are fixed per workload so runs stay
	// comparable; the percentile leaves at least ten samples beyond it at
	// full size on the reference machine. The mixed workload's tail is its
	// Gets', the class its rate was sized against: a percentile pooled over
	// its classes would land inside the 5% of slow Puts and swing with
	// their share.
	tailPct   float64
	tailClass string
	newBench  func(sz sizes, seed int64, clients int) bench
}

var workloads = map[string]workloadInfo{
	"scan": {90, "", func(sz sizes, seed int64, _ int) bench {
		return &scanBench{sz: sz, seed: seed}
	}},
	"ingest": {90, "", func(sz sizes, seed int64, clients int) bench {
		return &ingestBench{sz: sz, seed: seed, clients: clients}
	}},
	"mixed": {95, "get", func(sz sizes, seed int64, _ int) bench {
		return &mixedBench{sz: sz, seed: seed, rate: sz.mixedRate}
	}},
}

// tailSamples are the latencies the report's tail is taken over.
func (info workloadInfo) tailSamples(s samples) []time.Duration {
	if info.tailClass != "" {
		return s[info.tailClass]
	}
	return s.pooled()
}

// window is one measured stretch and what it observed.
type window struct {
	rec     *recorder
	elapsed time.Duration
	// heapMarks holds, for each garbage collection during the window, the
	// live heap it marked less the block bytes the in-process nodes held.
	heapMarks []uint64
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	// stealPct is the share of the machine's CPU time the hypervisor gave
	// to other guests during the window (-1 when unknown). On a shared VM
	// it is one source of run-to-run spread, so the report carries it.
	stealPct float64
}

// measure runs the workload on d for the given time. Closed-loop
// workloads use one client per processor. The caller verifies the final
// state once it has read whatever the window's meters hold.
func measure(b bench, d *deployment, rec *recorder, seconds float64) *window {
	w := &window{rec: rec}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	stop := sampleHeap(&w.heapMarks, d.storedBytes)
	steal0, total0, ok0 := cpuTimes()
	start := time.Now()
	b.run(d, rec, start.Add(time.Duration(seconds*float64(time.Second))), runtime.GOMAXPROCS(0))
	w.elapsed = time.Since(start)
	steal1, total1, ok1 := cpuTimes()
	stop()
	w.stealPct = -1
	if ok0 && ok1 && total1 > total0 {
		w.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	runtime.ReadMemStats(&w.mem1)
	return w
}

// sampleHeap polls every millisecond, until the returned stop is called,
// for a finished garbage collection, and records the live heap it marked
// less the node-held bytes at that moment. Live heap rather than heap in
// use: the latter also counts garbage awaiting the next cycle, which swings
// with GC timing from run to run. The nodes' blocks are left out because
// they stand for other machines' storage, which stored_bytes_ratio counts.
func sampleHeap(marks *[]uint64, nodeBytes func() uint64) (stop func()) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	last := s[1].Value.Uint64()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if c := s[1].Value.Uint64(); c != last {
				last = c
				live, held := s[0].Value.Uint64(), nodeBytes()
				*marks = append(*marks, live-min(live, held))
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// heapMB is the pth percentile of the window's heap marks, in MB.
func (w *window) heapMB(p float64) float64 {
	v, _ := percentile(w.heapMarks, p)
	return float64(v) / 1e6
}

// setUp generates the corpus, deploys and preloads: everything a run does
// before it measures.
func setUp(b bench, cfg config, m *meters) (*deployment, error) {
	if err := b.corpus(); err != nil {
		return nil, err
	}
	d, err := deploy(cfg.sz.cacheBytes, m)
	if err != nil {
		return nil, err
	}
	if err := b.load(d); err != nil {
		d.close()
		return nil, err
	}
	if cfg.wrap != nil {
		d.target = cfg.wrap(d.target)
	}
	return d, nil
}

// run executes one invocation and returns the result line and the report.
func run(cfg config) (*result, map[string]any, error) {
	info, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want scan, ingest or mixed)", cfg.workload)
	}
	b := info.newBench(cfg.sz, cfg.seed, runtime.GOMAXPROCS(0))
	if cfg.trace {
		return runTraced(b, cfg)
	}

	var setups []float64
	var d *deployment
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		if d != nil {
			d.close()
			d = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if d, err = setUp(b, cfg, nil); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()
	if err := b.reference(); err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	w := measure(b, d, newRecorder(nil), cfg.seconds)
	b.verify(d, w.rec)

	rep := report(b, cfg.sz.cacheBytes, w)
	rep["setup_reps_s"] = setups
	tailSet := info.tailSamples(w.rec.lat)
	tailV, tailP, beyond := tail(tailSet, info.tailPct)
	rep["tail"] = map[string]any{"ms": ms(tailV), "class": info.tailClass, "percentile": tailP, "samples": len(tailSet), "beyond": beyond}
	res := newResult(w)
	add := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	add("setup_s", "s", medianFloat(setups))
	add("latency_p50_ms", "ms", ms(geomeanMedian(w.rec.lat)))
	add("ops_per_s", "1/s", float64(w.rec.lat.count())/w.elapsed.Seconds())
	add("stored_bytes_ratio", "ratio", float64(d.storedBytes())/float64(b.liveBytes()))
	add("heap_peak_mb", "MB", w.heapMB(90))
	rep["clocks"] = map[string]string{
		"setup_s": "wall", "latency_p50_ms": "wall", "tail": "wall",
		"ops_per_s": "wall", "stored_bytes_ratio": "none (exact count)", "heap_peak_mb": "none (p90 over GC marks of live heap less node-held blocks)",
	}
	return res, rep, nil
}

func newResult(w *window) *result {
	return &result{
		Correct:   len(w.rec.mismatches) == 0,
		Attempted: w.rec.attempted,
		Failed:    w.rec.failed,
		Metrics:   map[string]metric{},
	}
}

// report is the detail line: per-class latency, counts and mismatches.
func report(b bench, cacheBytes int64, w *window) map[string]any {
	classes := map[string]any{}
	for class, v := range w.rec.lat {
		c := map[string]any{"n": len(v)}
		for _, p := range []float64{50, 90, 95, 99} {
			if q, beyond := percentile(v, p); p == 50 || beyond >= 10 {
				c[fmt.Sprintf("p%g_ms", p)] = ms(q)
			}
		}
		classes[class] = c
	}
	rep := map[string]any{
		"corpus":      b.facts(),
		"cache_bytes": cacheBytes,
		"classes":     classes,
		"attempted":   w.rec.attempted,
		"failed":      w.rec.failed,
		"mismatches":  w.rec.mismatches,
		"elapsed_s":   w.elapsed.Seconds(),
		"steal_pct":   w.stealPct,
		"heap_marks":  len(w.heapMarks),
		"heap_max_mb": w.heapMB(100),
	}
	// Mixed charges latency from the scheduled arrival, so how late the
	// dispatcher released ops is part of every figure it reports.
	if mb, ok := b.(*mixedBench); ok {
		late, _ := percentile(mb.lateness, 99)
		rep["dispatcher"] = map[string]any{"late_p99_ms": ms(late), "peak_inflight": mb.peak}
	}
	return rep
}
