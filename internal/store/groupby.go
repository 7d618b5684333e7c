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

// This file is the grouped-aggregation stage: GROUP BY queries reduce each
// surviving row group to per-group partial states — on the hosting node when
// the stats-driven planner says the partials are cheaper than the chunks,
// at the coordinator otherwise — then merge the partials in row-group order.
// That per-row-group-partials-merged-in-order reduction is the canonical
// one every execution path shares (pushed, fetched, cached, degraded), so a
// query's groups are bit-identical no matter which mix of paths served it.
// AVG never travels pre-divided: it rides as (sum, count) inside its
// AggState and divides once, at result rendering.

// groupAgg is one aggregate the grouped stage computes: its projection (for
// labels and ORDER BY matching) and its argument column index, -1 for
// COUNT(*).
type groupAgg struct {
	proj sql.Projection
	ci   int
}

// groupWork is one row group's unit of grouped-stage work.
type groupWork struct {
	rg       int
	sub      *execState
	partials []sql.GroupPartial
	err      error
	pre      *rpc.Response // batched sub-response, when successful
	push     bool          // planner chose node-side partial aggregation
	node     int
	keyRefs  []rpc.ChunkRef
	valRefs  []rpc.ChunkRef
	// chunkBytes is the stored size of the row group's key and argument
	// chunks — the bytes a pushed op logically touched, for trace
	// accounting.
	chunkBytes uint64
}

// groupByStage executes a GROUP BY query over the filtered row groups and
// returns the finished result table (ORDER BY and LIMIT applied, one row
// per group).
func (s *Store) groupByStage(st *execState, q *sql.Query, colIdx map[string]int, rgBitmaps map[int]*bitmap.Bitmap) (*Result, error) {
	meta := st.meta
	keyIdx := make([]int, len(q.GroupBy))
	for i, c := range q.GroupBy {
		keyIdx[i] = colIdx[c]
	}
	// The aggregate list: the SELECT list's aggregates plus hidden ones
	// appearing only in ORDER BY, deduplicated by expression.
	var aggs []groupAgg
	findAgg := func(p sql.Projection) int {
		for i := range aggs {
			a := aggs[i].proj
			if a.Column == p.Column && a.Agg == p.Agg && a.Star == p.Star {
				return i
			}
		}
		return -1
	}
	addAgg := func(p sql.Projection) {
		if findAgg(p) >= 0 {
			return
		}
		ci := -1
		if !p.Star {
			ci = colIdx[p.Column]
		}
		aggs = append(aggs, groupAgg{proj: p, ci: ci})
	}
	for _, p := range q.Projections {
		if p.Agg != sql.AggNone {
			addAgg(p)
		}
	}
	for _, o := range q.OrderBy {
		if o.Proj.Agg != sql.AggNone {
			addAgg(o.Proj)
		}
	}
	kinds := make([]sql.AggKind, len(aggs))
	valIdx := make([]int, len(aggs))
	for i, a := range aggs {
		kinds[i] = a.proj.Agg
		valIdx[i] = a.ci
	}

	// Plan each surviving row group: node-side partial aggregation needs the
	// key and argument chunks co-located on one node AND the planner's
	// partial-vs-chunk cost check to pass.
	cfgPush := s.pushable(meta)
	var works []*groupWork
	for rg := range meta.Footer.RowGroups {
		bm := rgBitmaps[rg]
		if bm == nil || bm.Count() == 0 {
			continue
		}
		w := &groupWork{rg: rg}
		if cfgPush {
			node, keyRefs, valRefs, chunkBytes, ok := groupChunkRefs(meta, rg, keyIdx, valIdx)
			if ok && planGroupPush(meta, rg, keyIdx, valIdx, bm.Count()) {
				w.push, w.node = true, node
				w.keyRefs, w.valRefs, w.chunkBytes = keyRefs, valRefs, chunkBytes
			} else {
				// A pushdown deployment couldn't offload this row group:
				// either the key/argument chunks are not co-located on one
				// node, or the planner predicted the partial states would
				// outweigh the chunks.
				st.stats.GroupSpills++
				st.sp.Count(trace.GroupSpills, 1)
			}
		}
		works = append(works, w)
	}

	s.predispatchGroupWorks(st, works, kinds, rgBitmaps)
	runTasks(s.queryWorkers(), len(works), func(i int) {
		w := works[i]
		w.sub = st.fork()
		if w.pre != nil {
			w.partials = w.pre.Groups
			return
		}
		if w.push {
			// The pushed attempt failed — node down, or it hit the
			// cardinality cap — so this row group spills to the coordinator.
			w.sub.stats.GroupSpills++
			w.sub.sp.Count(trace.GroupSpills, 1)
		}
		w.partials, w.err = s.localGroupRG(w.sub, w.rg, keyIdx, valIdx, kinds, rgBitmaps[w.rg])
	})

	// Merge partials in row-group order — the canonical reduction.
	global := sql.NewGroupTable(kinds, 0)
	for _, w := range works {
		st.join(w.sub)
		if w.err != nil {
			return nil, w.err
		}
		if err := global.Merge(w.partials); err != nil {
			return nil, err
		}
	}
	groups := global.Sorted()

	// ORDER BY over group keys and aggregate results. Sorted() already put
	// the groups in canonical key order, and the sort below is stable, so
	// canonical key order is the deterministic tie-break (and the default
	// order when there is no ORDER BY at all).
	if len(q.OrderBy) > 0 {
		type orderRef struct {
			key  int // index into the group key tuple, or -1
			agg  int // index into aggs, or -1
			desc bool
		}
		ords := make([]orderRef, len(q.OrderBy))
		for i, o := range q.OrderBy {
			if o.Proj.Agg != sql.AggNone {
				ords[i] = orderRef{key: -1, agg: findAgg(o.Proj), desc: o.Desc}
			} else {
				ords[i] = orderRef{key: q.GroupKeyIndex(o.Proj.Column), agg: -1, desc: o.Desc}
			}
		}
		st.chargeCoordCPU(uint64(len(groups)) * 16)
		sort.SliceStable(groups, func(i, j int) bool {
			for _, o := range ords {
				var c int
				if o.key >= 0 {
					c = sql.CompareLiterals(groups[i].Key[o.key], groups[j].Key[o.key])
				} else {
					c = sql.CompareLiterals(groups[i].Aggs[o.agg].Result(), groups[j].Aggs[o.agg].Result())
				}
				if c == 0 {
					continue
				}
				if o.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if q.HasLimit && len(groups) > q.Limit {
		groups = groups[:q.Limit]
	}

	// Shape the result table: one column per SELECT item, one row per group.
	res := &Result{Rows: len(groups)}
	for _, p := range q.Projections {
		if p.Agg == sql.AggNone {
			ki := q.GroupKeyIndex(p.Column)
			col := lpq.ColumnData{Type: meta.Footer.Columns[colIdx[p.Column]].Type}
			for gi := range groups {
				l := groups[gi].Key[ki]
				switch col.Type {
				case lpq.Int64:
					col.Ints = append(col.Ints, l.I)
				case lpq.Float64:
					col.Floats = append(col.Floats, l.F)
				default:
					col.Strings = append(col.Strings, l.S)
				}
			}
			res.Columns = append(res.Columns, p.Column)
			res.Data = append(res.Data, col)
			continue
		}
		ai := findAgg(p)
		res.Columns = append(res.Columns, p.String())
		res.Data = append(res.Data, aggColumn(meta, aggs[ai], groups, ai))
	}
	return res, nil
}

// predispatchGroupWorks scatters the stage's pushed row groups and
// attaches each successful sub-response. Failed sub-ops and frames are left
// for the workers' coordinator-side fallback.
func (s *Store) predispatchGroupWorks(st *execState, works []*groupWork, kinds []sql.AggKind, rgBitmaps map[int]*bitmap.Bitmap) {
	var (
		nodes  []int
		subs   []rpc.Request
		pushed []*groupWork
	)
	for _, w := range works {
		if !w.push {
			continue
		}
		nodes = append(nodes, w.node)
		subs = append(subs, rpc.Request{
			Kind:      rpc.KindGroupAgg,
			Bitmap:    rgBitmaps[w.rg].Marshal(),
			KeyChunks: w.keyRefs,
			ValChunks: w.valRefs,
			AggKinds:  kinds,
			MaxGroups: maxNodeGroups,
		})
		pushed = append(pushed, w)
	}
	s.scatter(st, nodes, subs, func(sub *execState, i int, resp *rpc.Response) {
		w := pushed[i]
		w.pre = resp
		sub.sp.Count(trace.BytesRequested, w.chunkBytes)
		sub.sp.Count(trace.GroupPartials, uint64(len(resp.Groups)))
		sub.stats.GroupAggRPCs++
		sub.stats.PartialGroups += len(resp.Groups)
	})
}

// localGroupRG groups one row group at the coordinator: fetch the key and
// argument chunks (cache and reconstruction apply as usual) and fold the
// selected rows through the same GroupTable a node would use, yielding
// partials in the same deterministic key order.
func (s *Store) localGroupRG(st *execState, rg int, keyIdx, valIdx []int, kinds []sql.AggKind, bm *bitmap.Bitmap) ([]sql.GroupPartial, error) {
	chs := st.meta.Footer.RowGroups[rg].Chunks
	fetched := make(map[int]lpq.ColumnData)
	var proc uint64
	get := func(ci int) (lpq.ColumnData, error) {
		if col, ok := fetched[ci]; ok {
			return col, nil
		}
		col, err := s.fetchChunkColumn(st, rg, ci)
		if err != nil {
			return lpq.ColumnData{}, err
		}
		if col.Len() != bm.Len() {
			return lpq.ColumnData{}, fmt.Errorf("store: chunk (%d,%d) has %d rows, bitmap %d", rg, ci, col.Len(), bm.Len())
		}
		fetched[ci] = col
		proc += chs[ci].RawSize
		return col, nil
	}
	keys := make([]lpq.ColumnData, len(keyIdx))
	for i, ci := range keyIdx {
		col, err := get(ci)
		if err != nil {
			return nil, err
		}
		keys[i] = col
	}
	vals := make([]lpq.ColumnData, len(valIdx))
	for i, ci := range valIdx {
		if ci < 0 {
			continue // COUNT(*): no argument column
		}
		col, err := get(ci)
		if err != nil {
			return nil, err
		}
		vals[i] = col
	}
	st.chargeCoordCPU(proc)
	g := sql.NewGroupTable(kinds, 0)
	if err := g.AddRows(keys, vals, bm); err != nil {
		return nil, err
	}
	return g.Sorted(), nil
}

// aggColumn renders one aggregate's per-group values as a result column:
// COUNT is integral, SUM/AVG numeric, MIN/MAX follow the argument column's
// type.
func aggColumn(meta *ObjectMeta, a groupAgg, groups []sql.GroupPartial, ai int) lpq.ColumnData {
	switch a.proj.Agg {
	case sql.AggCount:
		col := lpq.ColumnData{Type: lpq.Int64}
		for gi := range groups {
			col.Ints = append(col.Ints, groups[gi].Aggs[ai].Result().I)
		}
		return col
	case sql.AggMin, sql.AggMax:
		if a.ci >= 0 && meta.Footer.Columns[a.ci].Type == lpq.String {
			col := lpq.ColumnData{Type: lpq.String}
			for gi := range groups {
				col.Strings = append(col.Strings, groups[gi].Aggs[ai].Result().S)
			}
			return col
		}
	}
	col := lpq.ColumnData{Type: lpq.Float64}
	for gi := range groups {
		col.Floats = append(col.Floats, groups[gi].Aggs[ai].Result().F)
	}
	return col
}
