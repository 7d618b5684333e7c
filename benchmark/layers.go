package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/snappy"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/tpch"
	"github.com/fusionstore/fusion/internal/trace"
)

// rpcKinds are the request classes the workloads send, broken out per
// kind; "meta" is metakv traffic of any kind. The report lists every label
// seen, so a kind missing here shows there.
var rpcKinds = []string{"batch", "getblock", "prepareblock", "commitobject", "deleteblock", "meta"}

// nodeKinds are the node-side handlers timed by Node.SetMetrics, by their
// rpc.Kind names.
var nodeKinds = []string{"Batch", "GetBlock", "PutBlock", "PrepareBlock", "CommitObject", "DeleteBlock"}

// storeStages are the span names read from the store's own trace tree,
// as "<op>.<span>".
var storeStages = []string{
	"put.layout", "put.place_stripe", "put.replicate_meta", "put.commit_blocks",
	"query.meta", "query.filter", "query.project", "query.group", "query.decode",
	"get.meta", "get.block", "get.reconstruct",
}

// runTraced measures the per-layer metrics. It first runs half the window
// uninstrumented, then redeploys with every meter installed and runs the
// other half traced, so the difference between the two halves' median
// latency is the instrumentation's overhead. The standalone layer timers
// run last, outside both windows.
func runTraced(b bench, cfg config) (*result, map[string]any, error) {
	half := cfg.seconds / 2
	d, err := setUp(b, cfg, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	if err := b.reference(); err != nil {
		d.close()
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	plain := measure(b, d, newRecorder(nil), half)
	b.verify(d, plain.rec)
	d.close()
	runtime.GC()

	m, tr := newMeters(), newTracer()
	if d, err = setUp(b, cfg, m); err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer d.close()
	// Only the window's own traffic counts: drop what set-up recorded.
	m.reset()
	cache0 := d.store.CacheStats()
	w := measure(b, d, newRecorder(tr), half)
	cache1 := d.store.CacheStats()
	out := map[string]metric{}
	ops := float64(max(w.rec.attempted, 1))
	add := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	// tcpnet: frames and the legs of each exchange, per op.
	wr, _ := m.hist.Merged("net.write")
	rd, _ := m.hist.Merged("net.read")
	writeNS, readNS := sumNS(wr), sumNS(rd)
	add("tcpnet.frames", "1/op", float64(wr.Count)/ops)
	add("tcpnet.write_ms", "ms/op", writeNS/1e6/ops)
	add("tcpnet.read_ms", "ms/op", readNS/1e6/ops)
	add("tcpnet.conn_wait_ms", "ms/op", (float64(m.callNS.Load())-writeNS-readNS)/1e6/ops)

	// rpc: coordinator-to-node calls by kind.
	rpcs := m.rpcStats()
	for _, k := range rpcKinds {
		st := rpcs[k]
		add("rpc."+k+".calls", "1/op", float64(st.calls)/ops)
		add("rpc."+k+".ms", "ms/op", float64(st.ns)/1e6/ops)
		add("rpc."+k+".req_bytes", "B/op", float64(st.reqBytes)/ops)
		add("rpc."+k+".resp_bytes", "B/op", float64(st.respBytes)/ops)
	}
	add("rpc.batch_subops", "1/op", float64(m.batchSubops.Load())/ops)
	add("rpc.errors", "1/op", float64(m.rpcErrors.Load())/ops)

	// cluster node handlers.
	for _, k := range nodeKinds {
		h, _ := m.hist.Merged("node." + k)
		add("node."+strings.ToLower(k)+".ms", "ms/op", sumNS(h)/1e6/ops)
	}

	// cluster block store.
	add("blockstore.put_bytes", "B/op", float64(m.bsPutBytes.Load())/ops)
	add("blockstore.get_bytes", "B/op", float64(m.bsGetBytes.Load())/ops)
	add("blockstore.get_calls", "1/op", float64(m.bsGetCalls.Load())/ops)
	add("blockstore.ms", "ms/op", float64(m.bsNS.Load())/1e6/ops)

	// store stages, from the span tree, per op of that kind.
	for _, st := range storeStages {
		op, _, _ := strings.Cut(st, ".")
		n := float64(max(tr.ops[op], 1))
		add("store."+st+"_ms", "ms/"+op, float64(tr.stageNS["store."+st])/1e6/n)
	}

	// trace counters, from each op's root span.
	for _, c := range tracedCounters {
		if c == trace.BytesRequested {
			continue
		}
		unit := "1/op"
		if c == trace.BytesFromNodes {
			unit = "B/op"
		}
		add("trace."+c.String(), unit, float64(tr.counters[c])/ops)
	}
	amp := 0.0
	if req := tr.counters[trace.BytesRequested]; req > 0 {
		amp = float64(tr.counters[trace.BytesFromNodes]) / float64(req)
	}
	add("trace.read_amplification", "ratio", amp)

	// fac layout and the put pipeline, from PutStats.
	var layout time.Duration
	var overhead, fallbacks, stripes float64
	var peak uint64
	for _, p := range w.rec.puts {
		layout += p.LayoutTime
		overhead += p.OverheadVsOptimal
		stripes += float64(p.Stripes)
		if p.FellBack {
			fallbacks++
		}
		peak = max(peak, p.PeakPipelineBytes)
	}
	puts := float64(max(len(w.rec.puts), 1))
	add("fac.layout_ms", "ms/put", ms(layout)/puts)
	add("fac.overhead_vs_optimal", "ratio", overhead/puts)
	add("fac.fallbacks", "ratio", fallbacks/puts)
	add("put.peak_pipeline_mb", "MB", float64(peak)/1e6)
	add("put.stripes", "1/put", stripes/puts)

	// cache, as deltas over the window.
	hits := (cache1.Block.Hits + cache1.Chunk.Hits) - (cache0.Block.Hits + cache0.Chunk.Hits)
	misses := (cache1.Block.Misses + cache1.Chunk.Misses) - (cache0.Block.Misses + cache0.Chunk.Misses)
	add("cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	add("cache.evictions", "1/op", float64(cache1.Evictions-cache0.Evictions)/ops)
	add("cache.invalidations", "1/op", float64(cache1.Invalidations-cache0.Invalidations)/ops)

	// Query-level figures the store reports itself.
	var wire uint64
	var sim []float64
	for _, q := range w.rec.queries {
		wire += q.TrafficBytes
		sim = append(sim, ms(q.Sim.Total))
	}
	add("query.wire_bytes", "B/query", float64(wire)/float64(max(len(w.rec.queries), 1)))
	add("query.sim_ms", "ms", medianFloat(sim))

	// Go runtime over the traced window.
	secs := w.elapsed.Seconds()
	add("runtime.allocs_per_op", "1/op", float64(w.mem1.Mallocs-w.mem0.Mallocs)/ops)
	add("runtime.alloc_mb_per_op", "MB/op", float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc)/1e6/ops)
	add("runtime.gc_cycles", "1/s", float64(w.mem1.NumGC-w.mem0.NumGC)/secs)
	add("runtime.gc_pause_ms", "ms/s", float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs)/1e6/secs)

	// The open-loop dispatcher's health (mixed only).
	late, inflight := 0.0, 0.0
	if mb, ok := b.(*mixedBench); ok {
		l, _ := percentile(mb.lateness, 99)
		late, inflight = ms(l), float64(mb.peak)
	}
	add("loadgen.late_p99_ms", "ms", late)
	add("loadgen.peak_inflight", "count", inflight)

	add("error_ratio", "ratio", float64(w.rec.failed)/ops)
	plainP50, tracedP50 := geomeanMedian(plain.rec.lat), geomeanMedian(w.rec.lat)
	add("tracing.overhead_pct", "%", 100*(float64(tracedP50)/float64(max(plainP50, 1))-1))

	// Layers measured alone, outside the store.
	files, err := layerCorpus(b, cfg)
	if err != nil {
		return nil, nil, err
	}
	for name, mv := range standaloneLayers(files) {
		out[name] = mv
	}

	b.verify(d, w.rec)
	res := newResult(w)
	res.Metrics = out
	res.Correct = res.Correct && len(plain.rec.mismatches) == 0
	res.Attempted += plain.rec.attempted
	res.Failed += plain.rec.failed

	rep := report(b, cfg.sz.cacheBytes, w)
	rep["untraced_p50_ms"] = ms(plainP50)
	rep["traced_p50_ms"] = ms(tracedP50)
	rep["rpc_labels"] = rpcLabels(rpcs)
	rep["clocks"] = "wall, except query.sim_ms (simnet latency model) and exact counts"
	return res, rep, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sumNS recovers a histogram's exact total from its count and mean.
func sumNS(h metrics.HistogramSnapshot) float64 { return float64(h.Count) * float64(h.Mean) }

func rpcLabels(rpcs map[string]rpcStat) []string {
	var out []string
	for k := range rpcs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// standaloneLayers times the store's building blocks called directly:
// the RS(9,6) coder over 1 MiB shards, lpq chunk decoding and Snappy over
// the workload's scan corpus, and the SQL parser and comparison kernel.
func standaloneLayers(files []*lpq.File) map[string]metric {
	out := map[string]metric{}
	coder := erasure.MustCoder(erasure.RS96)
	const shard = 1 << 20
	shards := make([][]byte, 9)
	rng := rand.New(rand.NewSource(1))
	for i := range shards {
		shards[i] = make([]byte, shard)
		if i < 6 {
			rng.Read(shards[i])
		}
	}
	dataMB := 6 * shard / 1e6
	out["erasure.encode_mb_per_s"] = metric{dataMB / timeLoop(func() { _ = coder.Encode(shards) }), "MB/s"}
	for _, lost := range []int{1, 3} {
		work := make([][]byte, 9)
		fn := func() {
			copy(work, shards)
			for i := 0; i < lost; i++ {
				work[i] = nil
			}
			_ = coder.Reconstruct(work)
		}
		out[fmt.Sprintf("erasure.reconstruct_%d_mb_per_s", lost)] = metric{dataMB / timeLoop(fn), "MB/s"}
	}

	var onDisk, snappyOut float64
	start := time.Now()
	for _, f := range files {
		ft := f.Footer()
		for rg := range ft.RowGroups {
			for c, cm := range ft.RowGroups[rg].Chunks {
				raw, _ := f.ChunkBytes(rg, c)
				_, _ = lpq.DecodeChunk(ft.Columns[c].Type, cm, raw)
				onDisk += float64(len(raw))
			}
		}
	}
	out["lpq.decode_mb_per_s"] = metric{onDisk / 1e6 / time.Since(start).Seconds(), "MB/s"}
	start = time.Now()
	for _, f := range files {
		ft := f.Footer()
		for rg := range ft.RowGroups {
			for c, cm := range ft.RowGroups[rg].Chunks {
				if !cm.Compressed {
					continue
				}
				raw, _ := f.ChunkBytes(rg, c)
				dec, _ := snappy.Decode(raw)
				snappyOut += float64(len(dec))
			}
		}
	}
	out["snappy.decode_mb_per_s"] = metric{snappyOut / 1e6 / time.Since(start).Seconds(), "MB/s"}

	queries := scanQueries()
	parse := timeLoop(func() {
		for _, q := range queries {
			_, _ = sql.Parse(q.sql)
		}
	})
	out["sql.parse_us"] = metric{parse * 1e6 / float64(len(queries)), "us"}

	// Q1's filter is one comparison on l_shipdate, over the whole column.
	q1, err := sql.Parse(tpch.Q1())
	if err != nil {
		panic(err)
	}
	cmp := q1.Where.(*sql.Compare)
	li := files[0]
	col, err := li.ReadColumn(li.Footer().ColumnIndex(cmp.Column))
	if err != nil {
		panic(err)
	}
	rows := float64(len(col.Ints))
	out["sql.filter_mrows_per_s"] = metric{rows / 1e6 / timeLoop(func() { _, _ = sql.EvalCompare(cmp, col) }), "Mrows/s"}
	return out
}

// layerCorpus is the scan corpus (lineitem first), generated from the
// run's seed when the workload has not built it.
func layerCorpus(b bench, cfg config) ([]*lpq.File, error) {
	sb, ok := b.(*scanBench)
	if !ok {
		sb = &scanBench{sz: cfg.sz, seed: cfg.seed}
		if err := sb.corpus(); err != nil {
			return nil, err
		}
	}
	var files []*lpq.File
	for _, name := range scanObjects {
		f, err := lpq.Open(sb.objects[name])
		if err != nil {
			return nil, fmt.Errorf("layer corpus %s: %w", name, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// timeLoop runs fn repeatedly for about 200 ms and returns the median
// seconds per call over five equal batches.
func timeLoop(fn func()) float64 {
	fn()
	start := time.Now()
	n := 1
	for ; time.Since(start) < 40*time.Millisecond; n++ {
		fn()
	}
	var per []float64
	for b := 0; b < 5; b++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, time.Since(t).Seconds()/float64(n))
	}
	return medianFloat(per)
}
