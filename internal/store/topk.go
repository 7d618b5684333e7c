package store

import (
	"fmt"
	"sort"

	"github.com/fusionstore/fusion/internal/bitmap"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/trace"
)

// This file is the ORDER BY execution path for ungrouped queries. The
// general shape materializes the projections (plus hidden order-only
// columns), sorts at the coordinator, and truncates. ORDER BY + LIMIT on a
// single plain column instead pushes a top-k operator to the nodes: each
// row group returns at most k (key, rg, row) candidates, the coordinator
// runs a bounded k-way merge, and only the k winning rows are ever
// projected. Ties always break on global (rg, row) position — the same
// order a stable coordinator sort yields — so every path returns the same
// rows in the same order.

// orderedProjection runs the projection stage and applies the query's ORDER
// BY (LIMIT is applied by the caller).
func (s *Store) orderedProjection(st *execState, q *sql.Query, colIdx map[string]int, rgBitmaps map[int]*bitmap.Bitmap) (*Result, error) {
	if len(q.OrderColumns()) == 0 {
		// No ORDER BY, or ORDER BY over aggregates only — an ungrouped
		// aggregate result is a single row, so there is nothing to sort.
		return s.projectionStage(st, q, colIdx, rgBitmaps)
	}
	if q.HasLimit && q.Limit > 0 && len(q.OrderBy) == 1 &&
		q.OrderBy[0].Proj.Agg == sql.AggNone && !q.HasAggregates() {
		return s.topKStage(st, q, colIdx, rgBitmaps)
	}
	return s.sortedProjection(st, q, colIdx, rgBitmaps)
}

// sortedProjection is the general ORDER BY path: order-only columns ride
// along as hidden projections, the materialized rows are permuted by a
// stable sort (ties keep row-group-major row order), and the hidden columns
// are stripped before returning.
func (s *Store) sortedProjection(st *execState, q *sql.Query, colIdx map[string]int, rgBitmaps map[int]*bitmap.Bitmap) (*Result, error) {
	projected := make(map[string]bool)
	for _, p := range q.Projections {
		if p.Agg == sql.AggNone {
			projected[p.Column] = true
		}
	}
	hidden := make(map[string]bool)
	for _, c := range q.OrderColumns() {
		if !projected[c] {
			hidden[c] = true
			q.Projections = append(q.Projections, sql.Projection{Column: c})
		}
	}
	res, err := s.projectionStage(st, q, colIdx, rgBitmaps)
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int, len(res.Columns))
	for i, c := range res.Columns {
		pos[c] = i
	}
	n := 0
	if len(res.Data) > 0 {
		n = res.Data[0].Len()
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	st.chargeCoordCPU(uint64(n) * 16)
	sort.SliceStable(perm, func(a, b int) bool {
		for _, o := range q.OrderBy {
			if o.Proj.Agg != sql.AggNone {
				continue // a scalar aggregate ties every row
			}
			col := res.Data[pos[o.Proj.Column]]
			c := sql.CompareLiterals(litAt(col, perm[a]), litAt(col, perm[b]))
			if c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range res.Data {
		res.Data[i] = permuteColumn(res.Data[i], perm)
	}
	// Hidden columns were appended last, so surviving columns keep their
	// SELECT-list positions.
	for len(res.Columns) > 0 && hidden[res.Columns[len(res.Columns)-1]] {
		res.Columns = res.Columns[:len(res.Columns)-1]
		res.Data = res.Data[:len(res.Data)-1]
	}
	return res, nil
}

// topKWork is one row group's unit of top-k work.
type topKWork struct {
	rg   int
	sub  *execState
	rows []sql.TopRow
	err  error
	pre  *rpc.Response // batched sub-response, when successful
}

// topKStage executes ORDER BY <col> [DESC] LIMIT k via top-k pushdown:
// footer bounds prune row groups that provably cannot place, each surviving
// row group yields its local top-k (on the node or at the coordinator), and
// a bounded merge picks the winners — only then are the other projected
// columns materialized, for just those k rows.
func (s *Store) topKStage(st *execState, q *sql.Query, colIdx map[string]int, rgBitmaps map[int]*bitmap.Bitmap) (*Result, error) {
	meta := st.meta
	o := q.OrderBy[0]
	ci := colIdx[o.Proj.Column]
	k := q.Limit
	skip := topKPrunable(meta, ci, rgBitmaps, k, o.Desc)
	st.stats.PrunedRowGroups += len(skip)

	var works []*topKWork
	for rg := range meta.Footer.RowGroups {
		bm := rgBitmaps[rg]
		if bm == nil || bm.Count() == 0 || skip[rg] {
			continue
		}
		works = append(works, &topKWork{rg: rg})
	}
	s.predispatchTopKWorks(st, works, ci, k, o.Desc, rgBitmaps)
	runTasks(s.queryWorkers(), len(works), func(i int) {
		w := works[i]
		w.sub = st.fork()
		bm := rgBitmaps[w.rg]
		ch := meta.Footer.RowGroups[w.rg].Chunks[ci]
		if w.pre != nil {
			w.rows = w.pre.TopRows
			return
		}
		// Coordinator-side fallback: fetch the order column and fold the
		// selected rows through the same accumulator a node runs.
		col, err := s.fetchChunkColumn(w.sub, w.rg, ci)
		if err != nil {
			w.err = err
			return
		}
		if col.Len() != bm.Len() {
			w.err = fmt.Errorf("store: chunk (%d,%d) has %d rows, bitmap %d", w.rg, ci, col.Len(), bm.Len())
			return
		}
		w.sub.chargeCoordCPU(ch.RawSize)
		tk := sql.NewTopK(k, o.Desc)
		bm.ForEach(func(r int) { tk.Push(litAt(col, r), int32(w.rg), int32(r)) })
		w.rows = tk.Rows()
	})
	merged := sql.NewTopK(k, o.Desc)
	for _, w := range works {
		st.join(w.sub)
		if w.err != nil {
			return nil, w.err
		}
		merged.Merge(w.rows)
	}
	winners := merged.Rows()

	// Materialize the SELECT list for just the winning rows, then permute
	// the (rg, row)-ordered projection output into rank order.
	winBm := make(map[int]*bitmap.Bitmap)
	for _, w := range winners {
		bm := winBm[int(w.RG)]
		if bm == nil {
			bm = bitmap.New(meta.Footer.RowGroups[w.RG].NumRows)
			winBm[int(w.RG)] = bm
		}
		bm.Set(int(w.Row))
	}
	res, err := s.projectionStage(st, q, colIdx, winBm)
	if err != nil {
		return nil, err
	}
	type rowPos struct{ rg, row int32 }
	concat := append([]sql.TopRow(nil), winners...)
	sort.Slice(concat, func(a, b int) bool {
		if concat[a].RG != concat[b].RG {
			return concat[a].RG < concat[b].RG
		}
		return concat[a].Row < concat[b].Row
	})
	idx := make(map[rowPos]int, len(concat))
	for i, w := range concat {
		idx[rowPos{w.RG, w.Row}] = i
	}
	perm := make([]int, len(winners))
	for i, w := range winners {
		perm[i] = idx[rowPos{w.RG, w.Row}]
	}
	for i := range res.Data {
		res.Data[i] = permuteColumn(res.Data[i], perm)
	}
	return res, nil
}

// predispatchTopKWorks scatters the stage's pushable top-k ops; failed
// sub-ops fall back to the workers' coordinator-side path.
func (s *Store) predispatchTopKWorks(st *execState, works []*topKWork, ci, k int, desc bool, rgBitmaps map[int]*bitmap.Bitmap) {
	meta := st.meta
	if !s.pushable(meta) {
		return
	}
	var (
		nodes  []int
		subs   []rpc.Request
		pushed []*topKWork
		chs    []lpq.ChunkMeta
	)
	for _, w := range works {
		ch := meta.Footer.RowGroups[w.rg].Chunks[ci]
		if !planTopKPush(ch, k) {
			continue
		}
		node, ref, ok := chunkLocation(meta, w.rg, ci, ch)
		if !ok {
			continue
		}
		nodes = append(nodes, node)
		subs = append(subs, rpc.Request{
			Kind:   rpc.KindTopK,
			Chunk:  ref,
			Bitmap: rgBitmaps[w.rg].Marshal(),
			K:      k,
			Desc:   desc,
			RG:     int32(w.rg),
		})
		pushed = append(pushed, w)
		chs = append(chs, ch)
	}
	s.scatter(st, nodes, subs, func(sub *execState, i int, resp *rpc.Response) {
		pushed[i].pre = resp
		sub.sp.Count(trace.BytesRequested, chs[i].Size)
		sub.stats.TopKRPCs++
	})
}

// litAt extracts row i of col as a literal.
func litAt(col lpq.ColumnData, i int) sql.Literal {
	switch col.Type {
	case lpq.Int64:
		return sql.IntLit(col.Ints[i])
	case lpq.Float64:
		return sql.FloatLit(col.Floats[i])
	default:
		return sql.StringLit(col.Strings[i])
	}
}

// permuteColumn returns col's rows reordered so row i of the output is row
// perm[i] of the input.
func permuteColumn(col lpq.ColumnData, perm []int) lpq.ColumnData {
	out := lpq.ColumnData{Type: col.Type}
	switch col.Type {
	case lpq.Int64:
		out.Ints = make([]int64, len(perm))
		for i, p := range perm {
			out.Ints[i] = col.Ints[p]
		}
	case lpq.Float64:
		out.Floats = make([]float64, len(perm))
		for i, p := range perm {
			out.Floats[i] = col.Floats[p]
		}
	default:
		out.Strings = make([]string, len(perm))
		for i, p := range perm {
			out.Strings[i] = col.Strings[p]
		}
	}
	return out
}
