package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/datasets"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tpch"
)

// scanQuery is one query class of the scan workload.
type scanQuery struct {
	class string
	sql   string
}

// scanQueries are the paper's Q1-Q4 (Table 4), the §6 microbenchmark
// projection at ~1% and ~50% selectivity, and one each of the pushed
// aggregate, GROUP BY and ORDER BY..LIMIT shapes.
func scanQueries() []scanQuery {
	return []scanQuery{
		{"q1", tpch.Q1()},
		{"q2", tpch.Q2()},
		{"q3", datasets.TaxiQ3()},
		{"q4", datasets.TaxiQ4()},
		{"micro_1pct", tpch.MicrobenchQuery("l_extendedprice", 0.01)},
		{"micro_50pct", tpch.MicrobenchQuery("l_extendedprice", 0.5)},
		{"agg", "SELECT COUNT(*), SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE l_discount >= 0.05"},
		{"groupby", "SELECT l_returnflag, COUNT(*), SUM(l_extendedprice), AVG(l_quantity) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"},
		{"topk", "SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10"},
	}
}

// scanObjects names the scan corpus, lineitem first.
var scanObjects = []string{"lineitem", "taxi"}

// scanBench is the scan workload.
type scanBench struct {
	sz   sizes
	seed int64

	objects map[string][]byte
	queries []scanQuery
	seq     []int // query indexes, in the seeded order clients walk
	ref     []*store.Result
}

// corpus generates the two datasets from their configs' own fixed seeds;
// the run seed drives only the op sequence. Where chunks land on the nodes
// depends on the data, and a seeded corpus moved query latency by about 15%
// from seed to seed.
func (b *scanBench) corpus() error {
	var liData, txData []byte
	var liErr, txErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		liData, liErr = tpch.Generate(b.sz.lineitem)
	}()
	txData, txErr = datasets.Taxi(b.sz.taxi)
	wg.Wait()
	if liErr != nil || txErr != nil {
		return fmt.Errorf("scan corpus: lineitem: %v, taxi: %v", liErr, txErr)
	}
	b.objects = map[string][]byte{"lineitem": liData, "taxi": txData}
	b.queries = scanQueries()
	b.seq = b.sequence()
	return nil
}

// sequenceRounds is how many shuffled rounds of every query class the
// sequence holds: more than a window completes, so each run walks pairings
// of concurrent queries it does not repeat.
const sequenceRounds = 64

// sequence is the seeded op order every client walks, each from its own
// offset.
func (b *scanBench) sequence() []int {
	rng := rand.New(rand.NewSource(b.seed))
	var seq []int
	for r := 0; r < sequenceRounds; r++ {
		seq = append(seq, rng.Perm(len(b.queries))...)
	}
	return seq
}

// reference computes every query's expected result once, on a separate
// in-process simnet cluster storing the corpus with the paper's baseline
// (fixed-block coding, coordinator-side reassembly): a different layout
// and execution path from the store under test.
func (b *scanBench) reference() error {
	opts := store.BaselineOptions()
	opts.FixedBlockSize = 1 << 20
	s, err := store.New(simnet.New(simnet.DefaultConfig()), opts)
	if err != nil {
		return err
	}
	for name, data := range b.objects {
		if _, err := s.Put(name, data); err != nil {
			return fmt.Errorf("reference put %s: %w", name, err)
		}
	}
	b.ref = make([]*store.Result, len(b.queries))
	for i, q := range b.queries {
		if b.ref[i], err = s.Query(q.sql); err != nil {
			return fmt.Errorf("reference %s: %w", q.class, err)
		}
	}
	return nil
}

// load stores the objects in a fixed order: the store draws each stripe's
// placement from one seeded sequence, so the order decides which chunks
// share a node.
func (b *scanBench) load(d *deployment) error {
	for _, name := range scanObjects {
		if _, err := d.target.Put(context.Background(), name, b.objects[name]); err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
	}
	// Warm-up: one pass over the sequence's first round.
	rec := newRecorder(nil)
	for i := 0; i < len(b.seq)/sequenceRounds; i++ {
		b.do(d, rec, b.seq[i], false)
	}
	if rec.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed", rec.failed, rec.attempted)
	}
	return nil
}

func (b *scanBench) run(d *deployment, rec *recorder, until time.Time, clients int) {
	closedLoop(clients, until, func(client, i int) {
		b.do(d, rec, b.seq[(client*len(b.seq)/clients+i)%len(b.seq)], b.ref != nil)
	})
}

// do runs query q; with check set it compares the answer to the reference.
func (b *scanBench) do(d *deployment, rec *recorder, q int, check bool) {
	ctx, sp := rec.start()
	start := time.Now()
	res, err := d.target.Query(ctx, b.queries[q].sql)
	lat := time.Since(start)
	mismatch := ""
	if err == nil {
		rec.addQuery(res.Stats)
		if check {
			mismatch = sameResult(b.ref[q], res)
		}
	}
	rec.done(sp, b.queries[q].class, lat, err, mismatch)
}

func (b *scanBench) verify(*deployment, *recorder) {}

func (b *scanBench) liveBytes() uint64 {
	var n uint64
	for _, data := range b.objects {
		n += uint64(len(data))
	}
	return n
}

// sameResult compares a query answer with its reference field by field.
// Every execution path merges partial aggregates in one canonical order, so
// floats must match bit for bit.
func sameResult(want, got *store.Result) string {
	switch {
	case !sameSlice(want.Columns, got.Columns):
		return fmt.Sprintf("columns %v, want %v", got.Columns, want.Columns)
	case want.Rows != got.Rows:
		return fmt.Sprintf("%d rows, want %d", got.Rows, want.Rows)
	case !sameSlice(want.AggLabels, got.AggLabels) || !sameSlice(want.AggValues, got.AggValues):
		return fmt.Sprintf("aggregates %v, want %v", got.AggValues, want.AggValues)
	case !sameColumns(want.Data, got.Data):
		return "result rows differ from the reference"
	}
	return ""
}

func sameColumns(a, b []lpq.ColumnData) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Type != y.Type || !sameSlice(x.Ints, y.Ints) || !sameSlice(x.Floats, y.Floats) || !sameSlice(x.Strings, y.Strings) {
			return false
		}
	}
	return true
}

// sameSlice is element-wise equality that treats nil and empty alike.
func sameSlice[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// closedLoop runs clients callers, each issuing its next op only after the
// previous one returned, until the deadline; it returns when all have
// finished their last op.
func closedLoop(clients int, until time.Time, op func(client, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(until); i++ {
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// facts describes the corpus for the report: object sizes, and the working
// set the queries touch (every chunk of every column a query names, on
// disk and decoded), which the cache budget must stay well below.
func (b *scanBench) facts() map[string]any {
	cols := map[string]map[string]bool{}
	for _, q := range b.queries {
		parsed, err := sql.Parse(q.sql)
		if err != nil {
			continue
		}
		set := cols[parsed.Table]
		if set == nil {
			set = map[string]bool{}
			cols[parsed.Table] = set
		}
		if parsed.Where != nil {
			for _, c := range parsed.Where.Columns(nil) {
				set[c] = true
			}
		}
		for _, p := range parsed.Projections {
			set[p.Column] = true
		}
		for _, o := range parsed.OrderBy {
			set[o.Proj.Column] = true
		}
		for _, g := range parsed.GroupBy {
			set[g] = true
		}
	}
	sizes := map[string]int{}
	var onDisk, decoded uint64
	for name, data := range b.objects {
		sizes[name] = len(data)
		ft, err := lpq.ParseFooter(data)
		if err != nil {
			continue
		}
		for _, rg := range ft.RowGroups {
			for c, cm := range rg.Chunks {
				if cols[name][ft.Columns[c].Name] {
					onDisk += cm.Size
					decoded += cm.RawSize
				}
			}
		}
	}
	return map[string]any{
		"object_bytes":              sizes,
		"working_set_bytes":         onDisk,
		"working_set_decoded_bytes": decoded,
	}
}
