package store

import (
	"context"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sched"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/trace"
)

// Result is a query's output: filtered column values for plain projections
// and/or aggregate values, plus execution statistics.
type Result struct {
	// Columns and Data are the result table. For an ungrouped query they
	// hold the plain (non-aggregate) projections; for a GROUP BY query they
	// hold one column per SELECT item — group keys and per-group aggregate
	// values alike — with one row per group.
	Columns []string
	Data    []lpq.ColumnData
	// AggLabels and AggValues are the scalar aggregate projections of an
	// ungrouped query (empty for GROUP BY queries, whose aggregates are
	// per-group columns in Data).
	AggLabels []string
	AggValues []sql.Literal
	// Rows is the number of rows selected by the WHERE clause (capped by
	// LIMIT); for a GROUP BY query it is the number of returned groups.
	Rows int
	// Stats describes how the query executed.
	Stats QueryStats
}

// QueryStats reports a query's execution profile.
type QueryStats struct {
	// Wall is the measured wall-clock time.
	Wall time.Duration
	// Sim is the simulated latency sample (zero when no cost model is
	// configured).
	Sim metrics.LatencySample
	// TrafficBytes is the network traffic this query generated.
	TrafficBytes uint64
	// FilterRPCs, ProjectRPCs, AggregateRPCs and FetchRPCs count remote
	// operations.
	FilterRPCs, ProjectRPCs, AggregateRPCs, FetchRPCs int
	// BatchRPCs counts the scatter-gather frames that carried the batched
	// share of those operations — each frame is one network round trip, so
	// FilterRPCs+ProjectRPCs+AggregateRPCs-sized work arriving in few
	// BatchRPCs is the batching win.
	BatchRPCs int
	// GroupAggRPCs and TopKRPCs count grouped-aggregation and top-k
	// pushdown operations (each reduces a whole row group in situ).
	GroupAggRPCs, TopKRPCs int
	// PartialGroups counts the per-group partial states received from nodes
	// — the wire payload the stats-driven planner weighed against shipping
	// the raw chunks.
	PartialGroups int
	// GroupSpills counts row groups whose grouped pushdown was abandoned —
	// the planner predicted the partial states would outweigh the chunks,
	// or the node hit its cardinality cap — and fell back to
	// coordinator-side grouping.
	GroupSpills int
	// PushdownOn/PushdownOff count the cost model's per-chunk decisions.
	PushdownOn, PushdownOff int
	// PrunedRowGroups counts row groups skipped via footer statistics
	// (filter-stage min/max pruning and top-k bound pruning).
	PrunedRowGroups int
	// Selectivity is the measured fraction of rows selected.
	Selectivity float64
}

// execState accumulates per-stage operation costs during one query. The
// stage fan-out gives every concurrent task a forked child state and joins
// the children back in deterministic row-group/chunk order, so the merged
// stats and cost sheets — and therefore the simulated latency sample — are
// byte-identical to a serial run. The mutex additionally makes direct
// concurrent accounting on a shared state safe.
type execState struct {
	store *Store
	ctx   context.Context // caller's context; fan-out tasks observe it
	meta  *ObjectMeta
	coord int
	nowSt int         // current stage index
	sp    *trace.Span // current stage's trace span (nil when untraced)

	mu    sync.Mutex
	stats QueryStats
	stage [2][]simnet.OpCost
}

func (e *execState) addOp(op simnet.OpCost) {
	e.mu.Lock()
	e.stage[e.nowSt] = append(e.stage[e.nowSt], op)
	if !op.Local {
		e.stats.TrafficBytes += op.ReqBytes + op.RespBytes
	}
	e.mu.Unlock()
}

// fork returns a child state for one fan-out task. Children are owned by a
// single worker goroutine and carry the parent's stage index and span (the
// span itself is concurrency-safe, so tasks account into it directly).
func (e *execState) fork() *execState {
	return &execState{store: e.store, ctx: e.ctx, meta: e.meta, coord: e.coord, nowSt: e.nowSt, sp: e.sp}
}

// join folds a child's accounting back into e. Callers join children in
// task order, which keeps the cost-sheet op order — and with it the jitter
// draws of the latency model — independent of worker scheduling.
func (e *execState) join(c *execState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.stage {
		e.stage[i] = append(e.stage[i], c.stage[i]...)
	}
	s, cs := &e.stats, &c.stats
	s.TrafficBytes += cs.TrafficBytes
	s.FilterRPCs += cs.FilterRPCs
	s.ProjectRPCs += cs.ProjectRPCs
	s.AggregateRPCs += cs.AggregateRPCs
	s.FetchRPCs += cs.FetchRPCs
	s.BatchRPCs += cs.BatchRPCs
	s.GroupAggRPCs += cs.GroupAggRPCs
	s.TopKRPCs += cs.TopKRPCs
	s.PartialGroups += cs.PartialGroups
	s.GroupSpills += cs.GroupSpills
	s.PushdownOn += cs.PushdownOn
	s.PushdownOff += cs.PushdownOff
	s.PrunedRowGroups += cs.PrunedRowGroups
}

// chargeCoordCPU adds coordinator-side processing to the cluster's CPU
// accounting when the transport supports it (simnet).
func (e *execState) chargeCoordCPU(procBytes uint64) {
	acc, ok := e.store.client.(interface{ AddCPU(int, float64) })
	if !ok {
		return
	}
	rate := 6.0e9 // matches simnet.DefaultConfig().ProcessRate
	if m := e.store.opts.Model; m != nil {
		rate = m.ProcessRate()
	}
	acc.AddCPU(e.coord, float64(procBytes)/rate)
}

// Query parses and executes a SELECT statement; the FROM clause names the
// object. Execution follows §4.3/§5: a filter stage that pushes comparisons
// to the nodes hosting the relevant column chunks (after footer-based row
// group pruning), bitmap consolidation at the coordinator, then a
// projection stage with per-chunk cost-based pushdown. Under the baseline
// configuration the needed chunks are instead fetched (and reassembled
// across nodes when split) and processed at the coordinator.
func (s *Store) Query(query string) (*Result, error) {
	return s.QueryContext(context.Background(), query)
}

// QueryContext is Query under a (possibly traced) context. The span tree
// records the filter and projection stages, per-chunk block RPCs, pushdown
// replies, reconstructions and local decodes, plus the bytes-requested vs
// bytes-from-nodes counters behind the read-amplification figure — for a
// pushdown query the amplification drops below 1, which is the paper's
// headline effect.
func (s *Store) QueryContext(ctx context.Context, query string) (*Result, error) {
	qsp := trace.FromContext(ctx).Child("store.Query")
	defer qsp.End()
	release, err := s.admit(ctx, qsp, sched.ClassScan)
	if err != nil {
		return nil, err
	}
	defer release()
	if s.hist != nil {
		defer func(start time.Time) {
			s.hist.Observe(opKey("Query"), time.Since(start))
		}(time.Now())
	}
	start := time.Now()
	q, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	msp := qsp.Child("meta")
	meta, err := s.Meta(q.Table)
	msp.End()
	if err != nil {
		return nil, err
	}
	res, err := s.runQuery(ctx, qsp, q, meta, start)
	if err != nil {
		// A cancelled or expired caller must not burn a second full pass —
		// the retry below exists for concurrent overwrites, not deadlines.
		if ctx.Err() != nil {
			return nil, err
		}
		// A concurrent overwrite can garbage-collect the blocks this
		// metadata snapshot points at mid-query. Re-resolve against the
		// quorum and retry once iff the object moved to a newer epoch.
		if fresh := s.refreshedMeta(q.Table, meta); fresh != nil {
			return s.runQuery(ctx, qsp, q, fresh, start)
		}
	}
	return res, err
}

// runQuery executes a parsed query against one specific metadata snapshot.
// The parsed query is copied first: star expansion appends to Projections,
// and a retry against fresh metadata must start from the original SELECT
// list, not one already expanded.
func (s *Store) runQuery(ctx context.Context, qsp *trace.Span, orig *sql.Query, meta *ObjectMeta, start time.Time) (*Result, error) {
	qc := *orig
	qc.Projections = append([]sql.Projection(nil), orig.Projections...)
	q := &qc
	st := &execState{store: s, ctx: ctx, meta: meta, coord: s.CoordinatorFor(q.Table), sp: qsp}

	// Resolve the SELECT list.
	if q.Star {
		for _, c := range meta.Footer.Columns {
			q.Projections = append(q.Projections, sql.Projection{Column: c.Name})
		}
	}
	colIdx := make(map[string]int, len(meta.Footer.Columns))
	for i, c := range meta.Footer.Columns {
		colIdx[c.Name] = i
	}
	check := func(names []string) error {
		for _, n := range names {
			if _, ok := colIdx[n]; !ok {
				return fmt.Errorf("store: unknown column %q in object %q", n, q.Table)
			}
		}
		return nil
	}
	if err := check(q.FilterColumns()); err != nil {
		return nil, err
	}
	if err := check(q.ProjectionColumns()); err != nil {
		return nil, err
	}
	if err := check(q.GroupBy); err != nil {
		return nil, err
	}
	if err := check(q.OrderColumns()); err != nil {
		return nil, err
	}

	// Stage 1: filter. Produces one bitmap per surviving row group.
	st.nowSt = 0
	st.sp = qsp.Child("filter")
	rgBitmaps, err := s.filterStage(st, q, colIdx)
	st.sp.End()
	if err != nil {
		return nil, err
	}
	selected := 0
	for _, bm := range rgBitmaps {
		if bm != nil {
			selected += bm.Count()
		}
	}
	// Pruned row groups still count toward total rows.
	st.stats.Selectivity = measuredSelectivity(selected, meta.Footer.NumRows())

	// Stage boundary: a caller that gave up during the filter stage must not
	// pay for (or inflict on the cluster) the projection stage.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2: projection — or grouped aggregation, which produces its own
	// result table (one row per group) and applies ORDER BY/LIMIT itself.
	st.nowSt = 1
	var res *Result
	if len(q.GroupBy) > 0 {
		st.sp = qsp.Child("group")
		res, err = s.groupByStage(st, q, colIdx, rgBitmaps)
		st.sp.End()
		if err != nil {
			return nil, err
		}
	} else {
		st.sp = qsp.Child("project")
		res, err = s.orderedProjection(st, q, colIdx, rgBitmaps)
		st.sp.End()
		if err != nil {
			return nil, err
		}
		res.Rows = selected
		if q.HasLimit {
			truncateResult(res, q.Limit)
		}
	}
	st.stats.Wall = time.Since(start)
	if m := s.opts.Model; m != nil {
		t1, b1 := m.StageTime(st.stage[0])
		t2, b2 := m.StageTime(st.stage[1])
		b1.Add(b2)
		// Client leg: the query arrives at and its result leaves the
		// coordinator over the network (the paper's dedicated client node,
		// §6), so every query pays at least one RTT plus the result
		// transfer.
		client := m.ClientLeg(resultWireBytes(res))
		b1.Network += client
		st.stats.Sim = metrics.LatencySample{Total: t1 + t2 + client, Phase: b1}
	}
	res.Stats = st.stats
	return res, nil
}

// measuredSelectivity is the fraction of an object's rows a query's filter
// selected. A zero-row object (or a fully-pruned query over one) reports 0
// — never NaN — so downstream consumers (the adaptive pushdown cost model,
// stats JSON, dashboards averaging selectivities) see a well-defined value.
func measuredSelectivity(selected, total int) float64 {
	if total <= 0 {
		return 0
	}
	return float64(selected) / float64(total)
}

// rgVerdict folds chunk statistics through the predicate tree, yielding a
// tri-state verdict for a whole row group.
func rgVerdict(e sql.Expr, footer *lpq.Footer, colIdx map[string]int, rg int) sql.StatsVerdict {
	switch node := e.(type) {
	case *sql.Compare:
		ci := colIdx[node.Column]
		ch := footer.RowGroups[rg].Chunks[ci]
		return sql.CheckStats(node, footer.Columns[ci].Type, ch.Stats)
	case *sql.Binary:
		l := rgVerdict(node.L, footer, colIdx, rg)
		r := rgVerdict(node.R, footer, colIdx, rg)
		if node.Op == sql.OpAnd {
			if l == sql.StatsNone || r == sql.StatsNone {
				return sql.StatsNone
			}
			if l == sql.StatsAll && r == sql.StatsAll {
				return sql.StatsAll
			}
			return sql.StatsUnknown
		}
		if l == sql.StatsAll || r == sql.StatsAll {
			return sql.StatsAll
		}
		if l == sql.StatsNone && r == sql.StatsNone {
			return sql.StatsNone
		}
		return sql.StatsUnknown
	case *sql.Not:
		switch rgVerdict(node.E, footer, colIdx, rg) {
		case sql.StatsAll:
			return sql.StatsNone
		case sql.StatsNone:
			return sql.StatsAll
		default:
			return sql.StatsUnknown
		}
	default:
		return sql.StatsUnknown
	}
}

// filterStage computes the selection bitmap of every row group; a nil entry
// means the row group was pruned or nothing in it matched. The planner's
// shortcuts come first and never touch the network: whole row groups pruned
// (or accepted) by the footer-stats verdict, then per-leaf chunk-stats
// verdicts. Under pushdown over a FAC object the surviving leaves of every
// row group are scattered as one stage — sub-ops carry the row-group id in
// Request.RG — so a node gets one frame covering all the row groups it
// hosts, not one per row group. Leaves that were not pushed, or whose
// pushdown failed (node down, corrupt chunk, lost frame), are evaluated by
// fetching the chunk during consolidation, which runs per row group on the
// worker pool and joins in row-group order, so the output and cost sheet
// match a serial run exactly.
func (s *Store) filterStage(st *execState, q *sql.Query, colIdx map[string]int) (map[int]*bitmap.Bitmap, error) {
	meta := st.meta
	rgs := meta.Footer.RowGroups
	push := s.pushable(meta)
	leaves := exprLeaves(q.Where, nil)
	type rgState struct {
		pruned bool // footer stats prove no row matches
		full   bool // no WHERE, or footer stats prove every row matches
		pre    map[*sql.Compare]*bitmap.Bitmap
	}
	states := make([]rgState, len(rgs))
	type leafRef struct {
		rg  int
		cmp *sql.Compare
		ch  lpq.ChunkMeta
	}
	var (
		nodes []int
		subs  []rpc.Request
		refs  []leafRef
	)
	for rg := range rgs {
		rs := &states[rg]
		if q.Where == nil {
			rs.full = true
			continue
		}
		switch rgVerdict(q.Where, meta.Footer, colIdx, rg) {
		case sql.StatsNone:
			rs.pruned = true
			continue
		case sql.StatsAll:
			rs.full = true
			continue
		}
		rs.pre = make(map[*sql.Compare]*bitmap.Bitmap, len(leaves))
		nRows := rgs[rg].NumRows
		for _, c := range leaves {
			ci := colIdx[c.Column]
			ch := rgs[rg].Chunks[ci]
			// Chunk-level stats shortcut (no I/O at all).
			switch sql.CheckStats(c, meta.Footer.Columns[ci].Type, ch.Stats) {
			case sql.StatsNone:
				rs.pre[c] = bitmap.New(nRows)
				continue
			case sql.StatsAll:
				rs.pre[c] = bitmap.NewFull(nRows)
				continue
			}
			if !push {
				continue
			}
			node, ref, ok := chunkLocation(meta, rg, ci, ch)
			if !ok {
				continue // no item: consolidation fetches the chunk
			}
			nodes = append(nodes, node)
			subs = append(subs, rpc.Request{
				Kind: rpc.KindFilter, Chunk: ref, Op: c.Op, Value: c.Value, RG: int32(rg),
			})
			refs = append(refs, leafRef{rg: rg, cmp: c, ch: ch})
		}
	}
	// Each frame task writes only its own leaves' slots; the shared pre maps
	// are filled sequentially afterwards.
	bms := make([]*bitmap.Bitmap, len(subs))
	s.scatter(st, nodes, subs, func(sub *execState, i int, resp *rpc.Response) {
		bm, err := bitmap.Unmarshal(resp.Data)
		if err != nil || bm.Len() != rgs[refs[i].rg].NumRows {
			return
		}
		// The filter logically touched the chunk but only the bitmap crossed
		// the network — this is what pulls query read amplification below 1.
		sub.sp.Count(trace.BytesRequested, refs[i].ch.Size)
		sub.stats.FilterRPCs++
		bms[i] = bm
	})
	for i, bm := range bms {
		if bm != nil {
			states[refs[i].rg].pre[refs[i].cmp] = bm
		}
	}
	type rgResult struct {
		bm  *bitmap.Bitmap
		sub *execState
		err error
	}
	results := make([]rgResult, len(rgs))
	runTasks(s.queryWorkers(), len(rgs), func(rg int) {
		r := &results[rg]
		rs := &states[rg]
		if rs.pruned {
			return
		}
		nRows := rgs[rg].NumRows
		if rs.full {
			r.bm = bitmap.NewFull(nRows)
			return
		}
		// Row-group boundary is the consolidation's cancellation checkpoint.
		if err := st.ctx.Err(); err != nil {
			r.err = err
			return
		}
		r.sub = st.fork()
		leaf := func(c *sql.Compare) (*bitmap.Bitmap, error) {
			if bm, ok := rs.pre[c]; ok {
				return bm, nil
			}
			ci := colIdx[c.Column]
			col, err := s.fetchChunkColumn(r.sub, rg, ci)
			if err != nil {
				return nil, err
			}
			r.sub.chargeCoordCPU(rgs[rg].Chunks[ci].RawSize)
			return sql.EvalCompare(c, col)
		}
		bm, err := sql.EvalExpr(q.Where, nRows, leaf)
		if err != nil {
			r.err = err
			return
		}
		if bm.Count() > 0 {
			r.bm = bm // else leave nil: empty after exact filtering
		}
	})
	out := make(map[int]*bitmap.Bitmap, len(rgs))
	for rg := range results {
		r := &results[rg]
		if r.sub != nil {
			st.join(r.sub)
		}
		if r.err != nil {
			return nil, r.err
		}
		if states[rg].pruned {
			st.stats.PrunedRowGroups++
		}
		out[rg] = r.bm
	}
	return out, nil
}

// fetchChunkColumn brings a chunk's bytes to the coordinator (reassembling
// across blocks/nodes when split) and decodes it locally. This is the
// baseline's only path and Fusion's fallback when the cost model disables
// pushdown. A checksum failure (bit rot on the hosting node) triggers a
// second fetch that reconstructs the chunk's blocks from stripe parity.
//
// With the cache enabled, decoded chunks are cached keyed by (object,
// epoch, row group, column): a repeated scan serves its columns straight
// from memory — no RPC, no decompression — and records zero
// bytes-from-nodes. DecodeChunk verifies the chunk's CRC, so only verified
// decodes are admitted. Concurrent fetches of one chunk are deduplicated
// by singleflight. Cached ColumnData is shared — callers must not mutate.
func (s *Store) fetchChunkColumn(st *execState, rg, ci int) (lpq.ColumnData, error) {
	if !s.cacheOn() {
		return s.fetchChunkColumnUncached(st, rg, ci)
	}
	key := chunkKeyOf(st.meta, rg, ci)
	ch := st.meta.Footer.RowGroups[rg].Chunks[ci]
	if v, ok := s.cache.Get(key); ok {
		st.sp.Count(trace.BytesRequested, ch.Size)
		st.sp.Count(trace.CacheHits, 1)
		return v.(lpq.ColumnData), nil
	}
	flightKey := fmt.Sprintf("c/%s/e%d/%d/%d", st.meta.Name, st.meta.Epoch, rg, ci)
	v, err, _ := s.cache.Do(flightKey, func() (any, error) {
		col, err := s.fetchChunkColumnUncached(st, rg, ci)
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, col, ch.RawSize)
		return col, nil
	})
	if err != nil {
		return lpq.ColumnData{}, err
	}
	return v.(lpq.ColumnData), nil
}

// fetchChunkColumnUncached is the actual fetch+decode of one chunk.
func (s *Store) fetchChunkColumnUncached(st *execState, rg, ci int) (lpq.ColumnData, error) {
	raw, err := s.fetchChunkBytes(st, rg, ci)
	if err != nil {
		return lpq.ColumnData{}, err
	}
	meta := st.meta
	ch := meta.Footer.RowGroups[rg].Chunks[ci]
	st.addOp(simnet.OpCost{Local: true, ProcBytes: ch.RawSize})
	dsp := st.sp.Child("decode")
	col, err := lpq.DecodeChunk(meta.Footer.Columns[ci].Type, ch, raw)
	dsp.End()
	if err == nil {
		return col, nil
	}
	// Corrupt on-disk copy: rebuild from the stripe's survivors.
	raw, rerr := s.reconstructChunkBytes(st, rg, ci)
	if rerr != nil {
		return lpq.ColumnData{}, fmt.Errorf("store: chunk (%d,%d) corrupt (%v) and unreconstructable: %w", rg, ci, err, rerr)
	}
	st.addOp(simnet.OpCost{Local: true, ProcBytes: ch.RawSize})
	return lpq.DecodeChunk(meta.Footer.Columns[ci].Type, ch, raw)
}

// reconstructChunkBytes rebuilds a chunk's bytes via RS reconstruction,
// bypassing the (possibly corrupt) stored copies of the blocks that hold it.
func (s *Store) reconstructChunkBytes(st *execState, rg, ci int) ([]byte, error) {
	meta := st.meta
	ch := meta.Footer.RowGroups[rg].Chunks[ci]
	if meta.Mode == LayoutFAC {
		itemIdx := meta.ChunkItemIndex(rg, ci)
		loc := meta.ItemLocs[itemIdx]
		block, err := s.reconstructBlock(st.ctx, st.sp, meta, loc.Stripe, loc.Bin)
		if err != nil {
			return nil, err
		}
		if loc.BinOffset+ch.Size > uint64(len(block)) {
			return nil, fmt.Errorf("store: reconstructed block too short")
		}
		s.accountReconstruct(st, meta, loc.Stripe)
		return block[loc.BinOffset : loc.BinOffset+ch.Size], nil
	}
	// Fixed layout: the chunk spans blocks, and the chunk-level CRC cannot
	// say which stored block carries the corruption. Rebuilding a block via
	// RS with a silently-corrupt sibling as a source would itself produce
	// garbage, so each covering block is treated as the suspect in turn:
	// only it is rebuilt from the stripe's other blocks, the rest are used
	// as stored, and the first assembly whose chunk CRC verifies wins.
	bs := meta.BlockSize
	k := uint64(s.opts.Params.K)
	type span struct {
		stripe, bin int
		within, n   uint64
	}
	var spans []span
	end := ch.Offset + ch.Size
	for pos := ch.Offset; pos < end; {
		blockIdx := pos / bs
		within := pos - blockIdx*bs
		n := min(bs-within, end-pos)
		spans = append(spans, span{
			stripe: int(blockIdx / k),
			bin:    int(blockIdx % k),
			within: within,
			n:      n,
		})
		pos += n
	}
	stored := make([][]byte, len(spans))
	for i, sp := range spans {
		sm := meta.Stripes[sp.stripe]
		resp, err := s.call(st.ctx, st.sp, sm.Nodes[sp.bin], &rpc.Request{
			Kind: rpc.KindGetBlock, BlockID: sm.BlockIDs[sp.bin],
		})
		if err == nil && resp.Err == "" {
			stored[i] = resp.Data
		}
	}
	for suspect := range spans {
		out := make([]byte, 0, ch.Size)
		ok := true
		for i, sp := range spans {
			var block []byte
			if i == suspect || stored[i] == nil {
				rebuilt, err := s.reconstructBlock(st.ctx, st.sp, meta, sp.stripe, sp.bin)
				if err != nil {
					ok = false
					break
				}
				s.accountReconstruct(st, meta, sp.stripe)
				block = rebuilt
			} else {
				block = stored[i]
			}
			if sp.within+sp.n > uint64(len(block)) {
				ok = false
				break
			}
			out = append(out, block[sp.within:sp.within+sp.n]...)
		}
		if !ok {
			continue
		}
		if crc32.ChecksumIEEE(out) == ch.CRC {
			return out, nil
		}
	}
	return nil, fmt.Errorf("store: chunk (%d,%d): no single-block repair restores its checksum", rg, ci)
}

// accountReconstruct charges the cost of reading a whole stripe for
// reconstruction (k blocks over the network).
func (s *Store) accountReconstruct(st *execState, meta *ObjectMeta, stripe int) {
	sm := meta.Stripes[stripe]
	for j := 0; j < s.opts.Params.K && j < len(sm.Nodes); j++ {
		st.addOp(simnet.OpCost{
			Node:      sm.Nodes[j],
			ReqBytes:  rpcOverhead,
			RespBytes: sm.Capacity + rpcOverhead,
			DiskBytes: sm.Capacity,
		})
	}
}

// fetchChunkBytes reads the chunk's on-disk bytes from wherever they live.
func (s *Store) fetchChunkBytes(st *execState, rg, ci int) ([]byte, error) {
	meta := st.meta
	ch := meta.Footer.RowGroups[rg].Chunks[ci]
	st.sp.Count(trace.BytesRequested, ch.Size)
	if meta.Mode == LayoutFAC {
		itemIdx := meta.ChunkItemIndex(rg, ci)
		loc := meta.ItemLocs[itemIdx]
		stripe := meta.Stripes[loc.Stripe]
		node := stripe.Nodes[loc.Bin]
		data, err := s.readStripeRange(st.ctx, st.sp, meta, loc.Stripe, loc.Bin, loc.BinOffset, ch.Size)
		if err != nil {
			return nil, err
		}
		st.stats.FetchRPCs++
		st.addOp(simnet.OpCost{
			Node:      node,
			ReqBytes:  rpcOverhead,
			RespBytes: uint64(len(data)) + rpcOverhead,
			DiskBytes: uint64(len(data)),
		})
		return data, nil
	}
	// Fixed layout: the chunk may span multiple blocks on multiple nodes
	// (§3.1) — the reassembly the paper identifies as the bottleneck.
	bs := meta.BlockSize
	k := uint64(s.opts.Params.K)
	out := make([]byte, 0, ch.Size)
	end := ch.Offset + ch.Size
	for pos := ch.Offset; pos < end; {
		blockIdx := pos / bs
		stripe := int(blockIdx / k)
		bin := int(blockIdx % k)
		within := pos - blockIdx*bs
		n := min(bs-within, end-pos)
		data, err := s.readStripeRange(st.ctx, st.sp, meta, stripe, bin, within, n)
		if err != nil {
			return nil, err
		}
		node := meta.Stripes[stripe].Nodes[bin]
		st.stats.FetchRPCs++
		st.addOp(simnet.OpCost{
			Node:      node,
			ReqBytes:  rpcOverhead,
			RespBytes: uint64(len(data)) + rpcOverhead,
			DiskBytes: uint64(len(data)),
		})
		out = append(out, data...)
		pos += n
	}
	return out, nil
}

const rpcOverhead = 64

// ChunkNodeSpan returns how many distinct nodes hold parts of chunk
// (rg, ci) — 1 under FAC; possibly several under fixed blocks (Fig. 12).
func (s *Store) ChunkNodeSpan(name string, rg, ci int) (int, error) {
	meta, err := s.Meta(name)
	if err != nil {
		return 0, err
	}
	ch := meta.Footer.RowGroups[rg].Chunks[ci]
	if meta.Mode == LayoutFAC {
		return 1, nil
	}
	bs := meta.BlockSize
	k := uint64(s.opts.Params.K)
	nodes := make(map[int]bool)
	end := ch.Offset + ch.Size
	if ch.Size == 0 {
		return 1, nil
	}
	for pos := ch.Offset; pos < end; {
		blockIdx := pos / bs
		stripe := int(blockIdx / k)
		bin := int(blockIdx % k)
		nodes[meta.Stripes[stripe].Nodes[bin]] = true
		next := (blockIdx + 1) * bs
		if next > end {
			next = end
		}
		pos = next
	}
	return len(nodes), nil
}

// projectionStage materializes the SELECT list over the filtered rows.
func (s *Store) projectionStage(st *execState, q *sql.Query, colIdx map[string]int, rgBitmaps map[int]*bitmap.Bitmap) (*Result, error) {
	meta := st.meta
	res := &Result{}

	// Plain projected columns (in SELECT order, deduplicated).
	plainCols := make([]string, 0, len(q.Projections))
	seen := map[string]bool{}
	for _, p := range q.Projections {
		if p.Agg == sql.AggNone && !seen[p.Column] {
			seen[p.Column] = true
			plainCols = append(plainCols, p.Column)
		}
	}
	// Aggregate accumulators.
	type aggWork struct {
		proj  sql.Projection
		state *sql.AggState
	}
	var aggs []aggWork
	for _, p := range q.Projections {
		if p.Agg != sql.AggNone {
			aggs = append(aggs, aggWork{proj: p, state: sql.NewAggState(p.Agg)})
		}
	}
	// Columns whose selected values must be materialized per row group.
	// Aggregate-only columns are excluded when aggregate pushdown applies:
	// their chunks are reduced in-situ instead.
	aggPush := s.opts.AggregatePushdown && s.pushable(meta)
	aggOnly := map[string]bool{}
	var aggOnlyCols []string // SELECT-list order, for deterministic execution
	needCols := append([]string(nil), plainCols...)
	for _, a := range aggs {
		if a.proj.Star || seen[a.proj.Column] {
			continue
		}
		if aggPush {
			if !aggOnly[a.proj.Column] {
				aggOnly[a.proj.Column] = true
				aggOnlyCols = append(aggOnlyCols, a.proj.Column)
			}
		} else {
			needCols = append(needCols, a.proj.Column)
		}
	}
	needCols = dedupStrings(needCols)

	colData := make(map[string]*lpq.ColumnData, len(needCols))
	for _, name := range needCols {
		ci := colIdx[name]
		colData[name] = &lpq.ColumnData{Type: meta.Footer.Columns[ci].Type}
	}

	// Fan the per-chunk work (projections and in-situ aggregations) out
	// across a bounded worker pool. Tasks are generated in row-group-major,
	// SELECT-list-minor order and merged back in exactly that order, so the
	// result — including float aggregate accumulation order and the cost
	// sheets feeding the latency model — is identical to a serial run.
	var tasks []*chunkTask
	for rg := range meta.Footer.RowGroups {
		bm := rgBitmaps[rg]
		if bm == nil || bm.Count() == 0 {
			continue
		}
		for _, name := range needCols {
			tasks = append(tasks, &chunkTask{rg: rg, name: name})
		}
		for _, name := range aggOnlyCols {
			tasks = append(tasks, &chunkTask{rg: rg, name: name, agg: true})
		}
	}
	// Ship the stage's pushdown work; workers below consume the attached
	// sub-responses and fetch only the chunks that were not pushed or whose
	// pushdown failed.
	s.predispatchChunkTasks(st, colIdx, rgBitmaps, tasks)
	runTasks(s.queryWorkers(), len(tasks), func(i int) {
		t := tasks[i]
		bm := rgBitmaps[t.rg]
		ci := colIdx[t.name]
		t.sub = st.fork()
		if t.agg {
			t.partial, t.err = s.aggregateChunk(t.sub, t.rg, ci, bm, t.pre)
		} else {
			t.vals, t.err = s.projectChunk(t.sub, t.rg, ci, bm, t.pre)
		}
	})
	for _, t := range tasks {
		st.join(t.sub)
		if t.err != nil {
			return nil, t.err
		}
		if t.agg {
			for i := range aggs {
				if !aggs[i].proj.Star && aggs[i].proj.Column == t.name {
					aggs[i].state.Merge(t.partial)
				}
			}
			continue
		}
		if err := cluster.AppendColumn(colData[t.name], t.vals); err != nil {
			return nil, err
		}
		// Fold the aggregates over this chunk's selected values right here,
		// as a per-row-group partial merged in task order. This is the same
		// reduction shape as the pushdown branch above — one partial per
		// (row group, chunk), merged in row-group-major order — so float
		// accumulation is bit-identical no matter which mix of pushed,
		// fetched, and cached chunks served the query.
		for i := range aggs {
			if aggs[i].proj.Star || aggs[i].proj.Column != t.name {
				continue
			}
			part := sql.NewAggState(aggs[i].proj.Agg)
			part.AddColumn(t.vals, bitmap.NewFull(t.vals.Len()))
			aggs[i].state.Merge(part)
		}
	}
	for rg := range meta.Footer.RowGroups {
		bm := rgBitmaps[rg]
		if bm == nil || bm.Count() == 0 {
			continue
		}
		for i := range aggs {
			if aggs[i].proj.Star {
				aggs[i].state.AddCount(bm.Count())
			}
		}
	}
	for _, name := range plainCols {
		res.Columns = append(res.Columns, name)
		res.Data = append(res.Data, *colData[name])
	}
	for _, a := range aggs {
		res.AggLabels = append(res.AggLabels, a.proj.String())
		res.AggValues = append(res.AggValues, a.state.Result())
	}
	return res, nil
}

// projectChunk returns the selected values of one chunk: decoded from pre,
// its sub-response from the scatter-gather pre-dispatch, when the Cost
// Equation (§4.3: push down iff selectivity × compressibility < 1) pushed
// the projection and the node answered; otherwise by fetching the
// compressed chunk and selecting the rows locally.
func (s *Store) projectChunk(st *execState, rg, ci int, bm *bitmap.Bitmap, pre *rpc.Response) (lpq.ColumnData, error) {
	if pre != nil {
		vals, err := cluster.DecodePlain(pre.Data)
		if err == nil {
			st.stats.PushdownOn++
			return vals, nil
		}
		// Malformed reply: fall through to fetching.
	}
	if s.pushable(st.meta) {
		st.stats.PushdownOff++
	}
	col, err := s.fetchChunkColumn(st, rg, ci)
	if err != nil {
		return lpq.ColumnData{}, err
	}
	if col.Len() != bm.Len() {
		return lpq.ColumnData{}, fmt.Errorf("store: chunk (%d,%d) has %d rows, bitmap %d", rg, ci, col.Len(), bm.Len())
	}
	return cluster.SelectRows(col, bm), nil
}

// aggregateChunk reduces one chunk's selected rows to a partial aggregate:
// the node's in-situ reduction when pre, the chunk's sub-response from the
// scatter-gather pre-dispatch, carries one; locally otherwise.
func (s *Store) aggregateChunk(st *execState, rg, ci int, bm *bitmap.Bitmap, pre *rpc.Response) (*sql.AggState, error) {
	if pre != nil && pre.Agg != nil {
		return pre.Agg, nil
	}
	col, err := s.fetchChunkColumn(st, rg, ci)
	if err != nil {
		return nil, err
	}
	if col.Len() != bm.Len() {
		return nil, fmt.Errorf("store: chunk (%d,%d) has %d rows, bitmap %d", rg, ci, col.Len(), bm.Len())
	}
	state := sql.NewAggState(sql.AggCount)
	state.AddColumn(col, bm)
	return state, nil
}

// truncateResult applies a LIMIT clause: returned rows are capped after
// projection (LIMIT does not change which chunks execute, matching S3
// Select's post-filter semantics).
func truncateResult(res *Result, limit int) {
	for i := range res.Data {
		col := &res.Data[i]
		if col.Len() <= limit {
			continue
		}
		switch col.Type {
		case lpq.Int64:
			col.Ints = col.Ints[:limit]
		case lpq.Float64:
			col.Floats = col.Floats[:limit]
		default:
			col.Strings = col.Strings[:limit]
		}
	}
	if res.Rows > limit {
		res.Rows = limit
	}
}

// resultWireBytes estimates the result's size on the client connection.
func resultWireBytes(res *Result) uint64 {
	n := uint64(rpcOverhead)
	for _, col := range res.Data {
		switch col.Type {
		case lpq.Int64:
			n += 8 * uint64(len(col.Ints))
		case lpq.Float64:
			n += 8 * uint64(len(col.Floats))
		default:
			for _, s := range col.Strings {
				n += uint64(len(s)) + 1
			}
		}
	}
	n += 16 * uint64(len(res.AggValues))
	return n
}

func dedupStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
