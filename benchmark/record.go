package main

import (
	"context"
	"strings"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/trace"
)

// recorder collects one measured window: raw latencies of successful ops
// by class, attempt and failure counts, content mismatches, and (traced
// runs only) the stats the store returns with each op and folded span
// trees.
type recorder struct {
	tr *tracer // nil when untraced

	mu         sync.Mutex
	lat        samples
	attempted  int
	failed     int
	mismatches []string
	queries    []store.QueryStats
	puts       []*store.PutStats
}

func newRecorder(tr *tracer) *recorder { return &recorder{tr: tr, lat: samples{}} }

// start opens an op: in a traced window it installs a root span.
func (r *recorder) start() (context.Context, *trace.Span) {
	if r.tr == nil {
		return context.Background(), nil
	}
	return trace.Start(context.Background(), "op")
}

// done closes an op. A failed op counts against the attempts and stays out
// of the latency samples; a content mismatch is a failure and also fails
// the run.
func (r *recorder) done(sp *trace.Span, class string, lat time.Duration, err error, mismatch string) {
	if sp != nil {
		sp.End()
		r.tr.fold(sp)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	switch {
	case mismatch != "":
		r.failed++
		r.noteLocked(class + ": " + mismatch)
	case err != nil:
		r.failed++
	default:
		r.lat.add(class, lat)
	}
}

// mismatch records a content mismatch found outside any timed op.
func (r *recorder) mismatch(msg string) {
	r.mu.Lock()
	r.noteLocked(msg)
	r.mu.Unlock()
}

// noteLocked keeps the first mismatches verbatim and marks the rest.
func (r *recorder) noteLocked(msg string) {
	if len(r.mismatches) < 8 {
		r.mismatches = append(r.mismatches, msg)
	} else {
		r.mismatches = append(r.mismatches[:8], "...")
	}
}

func (r *recorder) addQuery(st store.QueryStats) {
	if r.tr == nil {
		return
	}
	r.mu.Lock()
	r.queries = append(r.queries, st)
	r.mu.Unlock()
}

func (r *recorder) addPut(st *store.PutStats) {
	if r.tr == nil {
		return
	}
	r.mu.Lock()
	r.puts = append(r.puts, st)
	r.mu.Unlock()
}

// tracer folds each traced op's span tree into per-stage time sums and
// root counter totals.
type tracer struct {
	mu       sync.Mutex
	stageNS  map[string]int64
	ops      map[string]int // store ops seen, by lower-case op name
	counters map[trace.Counter]uint64
}

func newTracer() *tracer {
	return &tracer{stageNS: map[string]int64{}, ops: map[string]int{}, counters: map[trace.Counter]uint64{}}
}

var tracedCounters = []trace.Counter{
	trace.BytesRequested, trace.BytesFromNodes, trace.RoundTrips, trace.Retries,
	trace.Hedges, trace.DegradedReads, trace.CacheHits, trace.ChecksumFailures,
}

// fold adds one finished root span. Stage spans are keyed
// "store.<op>.<stage>" under the store op span ("store.Query" and so on);
// a span nested under a same-named ancestor is not counted twice.
func (t *tracer) fold(root *trace.Span) {
	snap := root.Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range tracedCounters {
		t.counters[c] += root.Total(c)
	}
	for _, opSpan := range snap.Children {
		op, ok := strings.CutPrefix(opSpan.Name, "store.")
		if !ok {
			continue
		}
		op = strings.ToLower(op)
		t.ops[op]++
		prefix := "store." + op + "."
		t.walk(prefix, opSpan.Children, map[string]bool{})
	}
}

func (t *tracer) walk(prefix string, spans []trace.SpanJSON, onPath map[string]bool) {
	for _, s := range spans {
		name := strings.ReplaceAll(s.Name, "-", "_")
		if !onPath[name] {
			t.stageNS[prefix+name] += s.DurationNS
		}
		was := onPath[name]
		onPath[name] = true
		t.walk(prefix, s.Children, onPath)
		onPath[name] = was
	}
}
