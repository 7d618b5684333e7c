package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/loadgen"
	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/store"
)

// fullGet marks a full-object Get in loadgen.Op.Arg.
const fullGet = ^uint64(0)

// mixedBench is the mixed workload: an open loop of Poisson arrivals from
// loadgen's schedule at one fixed rate, every response checked by
// loadgen's oracle.
type mixedBench struct {
	sz   sizes
	seed int64
	rate float64

	oracle *loadgen.Oracle

	mu   sync.Mutex
	live map[int]int // object -> size of its last acknowledged version

	// Dispatcher health, for the traced report.
	lateness []time.Duration
	peak     int
}

// mixedCorpusSeed fixes loadgen's corpus and the content of every Put
// version, as scan's and ingest's corpora are fixed: object sizes set the
// cost of the Puts Gets queue behind, and a seeded corpus widened the
// get tail's spread from seed to seed. The run seed drives the schedule.
const mixedCorpusSeed = 1

func (b *mixedBench) corpus() error {
	o, err := loadgen.NewOracle(mixedCorpusSeed, b.sz.mixedObjects, b.sz.mixedRows)
	if err != nil {
		return fmt.Errorf("mixed corpus: %w", err)
	}
	b.oracle = o
	return nil
}

func (b *mixedBench) reference() error { return nil }

// load writes version 0 of every object, then warms up with one full Get
// and one query per object.
func (b *mixedBench) load(d *deployment) error {
	b.live = map[int]int{}
	for i := 0; i < b.oracle.Objects(); i++ {
		v := b.oracle.Initial(i)
		if _, err := d.target.Put(context.Background(), loadgen.ObjectName(i), v.Data); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		b.live[i] = len(v.Data)
	}
	rec := newRecorder(nil)
	start := time.Now()
	for i := 0; i < b.oracle.Objects(); i++ {
		b.do(d, rec, loadgen.Op{Kind: loadgen.OpGet, Object: i, Arg: fullGet}, start)
		b.do(d, rec, loadgen.Op{Kind: loadgen.OpQuery, Object: i, Arg: uint64(i % 7)}, start)
	}
	if rec.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %v", rec.failed, rec.attempted, rec.mismatches)
	}
	return nil
}

func (b *mixedBench) schedule(window time.Duration) []loadgen.Op {
	return loadgen.BuildSchedule(loadgen.Config{
		Seed:          b.seed,
		Rate:          b.rate,
		Duration:      window,
		Objects:       b.sz.mixedObjects,
		RowsPerObject: b.sz.mixedRows,
	})
}

// run is the open-loop dispatcher: one goroutine releases each op at its
// scheduled time and latency is charged from that time, so a stall delays
// and is charged to every op behind it. How late the dispatcher released
// ops is kept for the report.
func (b *mixedBench) run(d *deployment, rec *recorder, until time.Time, _ int) {
	schedule := b.schedule(time.Until(until))
	b.lateness = make([]time.Duration, 0, len(schedule))
	b.peak = 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	inflight := 0
	start := time.Now()
	for _, op := range schedule {
		arrival := start.Add(op.At)
		if w := time.Until(arrival); w > 0 {
			time.Sleep(w)
		}
		b.lateness = append(b.lateness, time.Since(arrival))
		mu.Lock()
		inflight++
		if inflight > b.peak {
			b.peak = inflight
		}
		mu.Unlock()
		wg.Add(1)
		go func(op loadgen.Op, arrival time.Time) {
			defer wg.Done()
			b.do(d, rec, op, arrival)
			mu.Lock()
			inflight--
			mu.Unlock()
		}(op, arrival)
	}
	wg.Wait()
}

// do runs one scheduled op and checks its response against the oracle.
func (b *mixedBench) do(d *deployment, rec *recorder, op loadgen.Op, arrival time.Time) {
	name := loadgen.ObjectName(op.Object)
	mismatch := ""
	var err error
	var class string
	ctx, root := rec.start()
	switch op.Kind {
	case loadgen.OpGet:
		class = "get"
		lo := b.oracle.ReadWindow(op.Object)
		var offset, length uint64
		if op.Arg != fullGet {
			offset, length = b.oracle.RangeFor(op.Object, op.Arg)
		}
		var got []byte
		if got, err = d.target.Get(ctx, name, offset, length); err == nil {
			if cerr := b.oracle.CheckGet(op.Object, lo, offset, length, got); cerr != nil {
				mismatch = cerr.Error()
			}
		}
	case loadgen.OpPut:
		class = "put"
		ver, v, ok, gerr := b.oracle.BeginPut(op.Object)
		if gerr != nil {
			err = gerr
			break
		}
		if !ok {
			// A Put to this object is still in flight; the oracle keeps
			// each object's history linear, so this one is coalesced.
			root.End()
			return
		}
		var st *store.PutStats
		st, err = d.target.Put(ctx, name, v.Data)
		b.oracle.EndPut(op.Object, ver, err == nil)
		if err == nil {
			rec.addPut(st)
			b.mu.Lock()
			b.live[op.Object] = len(v.Data)
			b.mu.Unlock()
		}
	case loadgen.OpQuery:
		class = "query"
		t := int(op.Arg)
		lo := b.oracle.ReadWindow(op.Object)
		var res *store.Result
		if res, err = d.target.Query(ctx, loadgen.QueryText(t, op.Object)); err == nil {
			rec.addQuery(res.Stats)
			var cerr error
			if loadgen.TableTemplate(t) {
				cerr = b.oracle.CheckQueryTable(op.Object, lo, t, resultRows(res))
			} else {
				cerr = b.oracle.CheckQuery(op.Object, lo, t, res.AggValues)
			}
			if cerr != nil {
				mismatch = cerr.Error()
			}
		}
	}
	rec.done(root, class, time.Since(arrival), err, mismatch)
}

func (b *mixedBench) verify(*deployment, *recorder) {}

func (b *mixedBench) liveBytes() uint64 {
	var n uint64
	for _, size := range b.live {
		n += uint64(size)
	}
	return n
}

// resultRows converts a table-shaped query result into rows of literals
// for the oracle.
func resultRows(res *store.Result) [][]sql.Literal {
	rows := make([][]sql.Literal, res.Rows)
	for i := range rows {
		row := make([]sql.Literal, len(res.Data))
		for j, col := range res.Data {
			switch col.Type {
			case lpq.Int64:
				row[j] = sql.IntLit(col.Ints[i])
			case lpq.Float64:
				row[j] = sql.FloatLit(col.Floats[i])
			default:
				row[j] = sql.StringLit(col.Strings[i])
			}
		}
		rows[i] = row
	}
	return rows
}

func (b *mixedBench) facts() map[string]any {
	var n int
	for i := 0; i < b.oracle.Objects(); i++ {
		n += len(b.oracle.Initial(i).Data)
	}
	return map[string]any{
		"objects":           b.oracle.Objects(),
		"working_set_bytes": n,
		"rate_ops_per_s":    b.rate,
		"get_tail_limit_ms": ms(mixedGetTailLimit),
	}
}
