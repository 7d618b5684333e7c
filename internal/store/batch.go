package store

import (
	"context"
	"fmt"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/trace"
)

// This file is the coordinator's one data-plane dispatch path: the query
// stages and multi-segment Gets plan their per-node sub-requests first,
// ship them as KindBatch frames, and fall back (fetch, retry, reconstruct)
// only for the sub-requests whose frame or reply failed. On a small-chunk
// scan this collapses one round trip per chunk into one per node per stage.
// Options.DisableBatch keeps the same path and only shrinks the frames to
// one sub-op each, which is the per-op A/B.

// frameOps is the most sub-requests one KindBatch frame carries.
func (s *Store) frameOps() int {
	if s.opts.DisableBatch {
		return 1
	}
	return rpc.MaxBatchOps
}

// batchCall dispatches subs to one node as scatter-gather frames of at most
// frameOps() sub-requests, sent one after another, and returns index-aligned
// sub-responses. A transport or outer application error fails the whole
// call — callers treat that as "all subs failed" and fall back. When st is
// non-nil the call accounts one simulated operation per frame (the whole
// point: one RPC overhead and one round trip amortized over every
// sub-request in the frame).
func (s *Store) batchCall(ctx context.Context, st *execState, sp *trace.Span, node int, subs []rpc.Request) ([]rpc.Response, error) {
	out := make([]rpc.Response, 0, len(subs))
	size := s.frameOps()
	for start := 0; start < len(subs); start += size {
		end := min(start+size, len(subs))
		req := &rpc.Request{Kind: rpc.KindBatch, Subs: subs[start:end]}
		resp, err := s.callChecked(ctx, sp, node, req)
		if err != nil {
			return nil, err
		}
		if len(resp.Subs) != end-start {
			return nil, fmt.Errorf("store: batch to node %d returned %d sub-responses, want %d",
				node, len(resp.Subs), end-start)
		}
		if st != nil {
			st.mu.Lock()
			st.stats.BatchRPCs++
			st.mu.Unlock()
			st.addOp(simnet.OpCost{
				Node:      node,
				ReqBytes:  req.WireSize(),
				RespBytes: resp.WireSize(),
				DiskBytes: resp.Cost.DiskBytes,
				ProcBytes: resp.Cost.ProcBytes,
			})
		}
		out = append(out, resp.Subs...)
	}
	return out, nil
}

// scatter ships one query stage's planned sub-requests: subs[i] goes to
// nodes[i]. Each node's subs are cut, in plan order, into frames of at most
// frameOps() sub-requests, and the frames run concurrently on the query
// worker pool, each accounting into its own forked state. accept is called
// with that fork for every sub-request whose reply carries no error; it may
// still reject a malformed reply by not recording it. Subs of a lost frame
// or with an error reply are left to the caller's fallback. Forks are
// joined in frame order (nodes by first appearance, then plan order), so
// the stage's stats and cost sheet do not depend on worker scheduling.
func (s *Store) scatter(st *execState, nodes []int, subs []rpc.Request, accept func(sub *execState, i int, resp *rpc.Response)) {
	byNode := make(map[int][]int)
	var order []int
	for i, node := range nodes {
		if _, ok := byNode[node]; !ok {
			order = append(order, node)
		}
		byNode[node] = append(byNode[node], i)
	}
	type frame struct {
		node int
		idx  []int // indices into subs
	}
	var frames []frame
	size := s.frameOps()
	for _, node := range order {
		idx := byNode[node]
		for start := 0; start < len(idx); start += size {
			frames = append(frames, frame{node: node, idx: idx[start:min(start+size, len(idx))]})
		}
	}
	forks := make([]*execState, len(frames))
	runTasks(s.queryWorkers(), len(frames), func(f int) {
		fr := frames[f]
		sub := st.fork()
		forks[f] = sub
		reqs := make([]rpc.Request, len(fr.idx))
		for j, i := range fr.idx {
			reqs[j] = subs[i]
		}
		resps, err := s.batchCall(sub.ctx, sub, sub.sp, fr.node, reqs)
		if err != nil {
			return // whole frame lost: every sub-request in it falls back
		}
		for j, i := range fr.idx {
			if resps[j].Err == "" {
				accept(sub, i, &resps[j])
			}
		}
	})
	for _, sub := range forks {
		st.join(sub)
	}
}

// chunkLocation resolves the node hosting chunk (rg, ci) under FAC layout
// and builds its wire reference. ok is false when the chunk has no item
// (non-FAC objects, or footer regions).
func chunkLocation(meta *ObjectMeta, rg, ci int, ch lpq.ChunkMeta) (node int, ref rpc.ChunkRef, ok bool) {
	itemIdx := meta.ChunkItemIndex(rg, ci)
	if itemIdx < 0 {
		return 0, rpc.ChunkRef{}, false
	}
	loc := meta.ItemLocs[itemIdx]
	stripe := meta.Stripes[loc.Stripe]
	return stripe.Nodes[loc.Bin], rpc.ChunkRef{
		BlockID: stripe.BlockIDs[loc.Bin],
		Offset:  loc.BinOffset,
		Type:    meta.Footer.Columns[ci].Type,
		Meta:    ch,
	}, true
}

// pushable reports whether any of meta's chunk work may be pushed to the
// nodes: only Fusion's pushdown execution over a FAC object, whose chunks
// each live whole on one node.
func (s *Store) pushable(meta *ObjectMeta) bool {
	return s.opts.Exec == ExecPushdown && meta.Mode == LayoutFAC
}

// pushProjection applies the projection pushdown policy (the Cost Equation
// under PushdownAdaptive, §4.3) to one chunk of a pushable object.
func (s *Store) pushProjection(ch lpq.ChunkMeta, sel float64) bool {
	switch s.opts.Pushdown {
	case PushdownAlways:
		return true
	case PushdownNever:
		return false
	default:
		return sel*ch.Compressibility() < 1
	}
}

// exprLeaves collects a predicate tree's comparison leaves in evaluation
// order. EvalExpr visits every leaf unconditionally (no short-circuiting),
// so pre-dispatching all of them never does speculative work.
func exprLeaves(e sql.Expr, out []*sql.Compare) []*sql.Compare {
	switch node := e.(type) {
	case *sql.Compare:
		return append(out, node)
	case *sql.Binary:
		return exprLeaves(node.R, exprLeaves(node.L, out))
	case *sql.Not:
		return exprLeaves(node.E, out)
	}
	return out
}

// chunkTask is one unit of projection-stage work: materializing (or in-situ
// aggregating) the selected rows of one chunk. pre carries the chunk's
// sub-response from the scatter-gather pre-dispatch; nil means the chunk
// was not pushed (or its pushdown failed) and the task fetches it.
type chunkTask struct {
	rg      int
	name    string
	agg     bool
	sub     *execState
	vals    lpq.ColumnData
	partial *sql.AggState
	err     error
	pre     *rpc.Response
}

// predispatchChunkTasks plans the projection stage's pushdown work —
// in-situ aggregations, and the projections the Cost Equation pushes — and
// scatters it, attaching each successful sub-response to its task. Tasks
// left without one fetch their chunk in the workers.
func (s *Store) predispatchChunkTasks(st *execState, colIdx map[string]int, rgBitmaps map[int]*bitmap.Bitmap, tasks []*chunkTask) {
	meta := st.meta
	if !s.pushable(meta) {
		return
	}
	var (
		nodes   []int
		subs    []rpc.Request
		planned []*chunkTask
		chs     []lpq.ChunkMeta
	)
	for _, t := range tasks {
		ci := colIdx[t.name]
		ch := meta.Footer.RowGroups[t.rg].Chunks[ci]
		bm := rgBitmaps[t.rg]
		node, ref, ok := chunkLocation(meta, t.rg, ci, ch)
		if !ok {
			continue
		}
		kind := rpc.KindAggregate // aggregate-only tasks exist only under aggregate pushdown
		if !t.agg {
			if !s.pushProjection(ch, bm.Selectivity()) {
				continue
			}
			kind = rpc.KindProject
		}
		nodes = append(nodes, node)
		subs = append(subs, rpc.Request{Kind: kind, Chunk: ref, Bitmap: bm.Marshal()})
		planned = append(planned, t)
		chs = append(chs, ch)
	}
	s.scatter(st, nodes, subs, func(sub *execState, i int, resp *rpc.Response) {
		t := planned[i]
		t.pre = resp
		sub.sp.Count(trace.BytesRequested, chs[i].Size)
		if t.agg {
			sub.stats.AggregateRPCs++
		} else {
			sub.stats.ProjectRPCs++
		}
	})
}

// blockKey identifies one data block of an object: (stripe, bin).
type blockKey struct{ stripe, bin int }

// prefetchWholeBlocks batch-fetches the whole blocks a Get needs, one
// scatter-gather frame per node holding two or more of them (frames of one
// under DisableBatch). Cached blocks are served directly; fetched blocks
// are verified against the stripe checksums exactly like a direct read and
// admitted to the cache. A block absent from the returned map (failed
// frame, failed sub-read, checksum mismatch) is left to readSegments'
// direct read, which retries and falls into RS reconstruction.
func (s *Store) prefetchWholeBlocks(ctx context.Context, sp *trace.Span, meta *ObjectMeta, need []blockKey) map[blockKey][]byte {
	whole := make(map[blockKey][]byte, len(need))
	type nodeGroup struct {
		subs []rpc.Request
		keys []blockKey
	}
	groups := make(map[int]*nodeGroup)
	var order []int
	for _, key := range need {
		if s.cacheOn() {
			if v, ok := s.cache.Get(blockKeyOf(meta, key.stripe, key.bin)); ok {
				sp.Count(trace.CacheHits, 1)
				whole[key] = v.([]byte)
				continue
			}
		}
		st := meta.Stripes[key.stripe]
		verify := !s.opts.SkipChecksumVerify && key.bin < len(st.Checksums)
		node := st.Nodes[key.bin]
		g := groups[node]
		if g == nil {
			g = &nodeGroup{}
			groups[node] = g
			order = append(order, node)
		}
		g.subs = append(g.subs, rpc.Request{
			Kind: rpc.KindGetBlock, BlockID: st.BlockIDs[key.bin], CallerVerifies: verify,
		})
		g.keys = append(g.keys, key)
	}
	for _, node := range order {
		g := groups[node]
		if len(g.subs) < 2 {
			continue // a lone read gains nothing from batch framing
		}
		resps, err := s.batchCall(ctx, nil, sp, node, g.subs)
		if err != nil {
			continue
		}
		for j, key := range g.keys {
			data, ok := s.verifyBlockReply(sp, meta, key.stripe, key.bin, &resps[j])
			if !ok {
				continue
			}
			whole[key] = data
			s.cacheFillBlock(meta, key.stripe, key.bin, data)
		}
	}
	return whole
}

// verifyBlockReply applies the whole-block end-to-end verification (see
// fetchWholeBlock) to one batched sub-response: a node-side error, a stripe
// checksum mismatch, or — for legacy stripes without recorded checksums — a
// reply CRC mismatch each count a checksum failure where applicable, enqueue
// the block for repair, and reject the reply.
func (s *Store) verifyBlockReply(sp *trace.Span, meta *ObjectMeta, stripe, bin int, resp *rpc.Response) ([]byte, bool) {
	st := meta.Stripes[stripe]
	verify := !s.opts.SkipChecksumVerify && bin < len(st.Checksums)
	repair := func() {
		sp.Count(trace.ChecksumFailures, 1)
		s.enqueueRepair(RepairItem{Object: meta.Name, Epoch: meta.Epoch, Stripe: stripe, Block: bin})
	}
	switch {
	case resp.Err != "":
		if cluster.IsChecksumErr(resp.Err) {
			repair()
		}
		return nil, false
	case verify && cluster.Checksum(resp.Data) != st.Checksums[bin]:
		repair()
		return nil, false
	case !verify && !s.opts.SkipChecksumVerify && cluster.Checksum(resp.Data) != resp.Crc:
		repair()
		return nil, false
	}
	return resp.Data, true
}
