package store

import (
	"reflect"
	"sync"
	"testing"

	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
)

// countingClient wraps a simnet cluster and records, for every pushed
// data-plane kind, how it reached a node: as a top-level request or inside
// a KindBatch frame of a given size. Embedding keeps the cluster's other
// methods (CPU accounting, SetDown) visible to the store.
type countingClient struct {
	*simnet.Cluster
	mu       sync.Mutex
	topLevel map[rpc.Kind]int
	inFrame  map[rpc.Kind]map[int]int // kind -> frame size -> sub-ops
}

func newCountingClient() *countingClient {
	return &countingClient{
		Cluster:  simnet.New(simnet.DefaultConfig()),
		topLevel: make(map[rpc.Kind]int),
		inFrame:  make(map[rpc.Kind]map[int]int),
	}
}

// pushedKind reports whether k is one of the query pushdown kinds.
func pushedKind(k rpc.Kind) bool {
	switch k {
	case rpc.KindFilter, rpc.KindProject, rpc.KindAggregate, rpc.KindGroupAgg, rpc.KindTopK:
		return true
	}
	return false
}

func (c *countingClient) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	c.mu.Lock()
	if req.Kind == rpc.KindBatch {
		for i := range req.Subs {
			k := req.Subs[i].Kind
			if c.inFrame[k] == nil {
				c.inFrame[k] = make(map[int]int)
			}
			c.inFrame[k][len(req.Subs)]++
		}
	} else if pushedKind(req.Kind) {
		c.topLevel[req.Kind]++
	}
	c.mu.Unlock()
	return c.Cluster.Call(node, req)
}

func (c *countingClient) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.topLevel)
	clear(c.inFrame)
}

// TestPerOpIsBatchOfOne checks that DisableBatch only changes the frame
// size: with it set, every pushed sub-op reaches its node inside a KindBatch
// frame holding exactly that one sub-op; with batching on, no pushed kind is
// ever sent as a top-level request. Both modes return identical results and
// the pinned data-plane round-trip counts.
func TestPerOpIsBatchOfOne(t *testing.T) {
	data, _, _ := makeObject(t, 3, 6000, 95)
	// Round trips are pinned: batched mode sends one frame per node per
	// stage, per-op mode one frame per pushed sub-op (grouped and top-k
	// ops included) plus one per chunk fetch.
	queries := []struct {
		name, sql string
		kinds     []rpc.Kind // pushed kinds the query must exercise
		rt        [2]uint64  // round trips: batched, per-op
	}{
		{"scan", "SELECT * FROM obj WHERE qty < 25",
			[]rpc.Kind{rpc.KindFilter, rpc.KindProject}, [2]uint64{11, 18}},
		{"aggregate", "SELECT count(*), sum(price) FROM obj WHERE flag = 'A'",
			[]rpc.Kind{rpc.KindFilter, rpc.KindAggregate}, [2]uint64{6, 6}},
		{"group-by", groupEquivQueries[1],
			[]rpc.Kind{rpc.KindGroupAgg}, [2]uint64{3, 3}},
		{"top-k", "SELECT id, price FROM obj WHERE qty >= 10 ORDER BY price DESC LIMIT 7",
			[]rpc.Kind{rpc.KindFilter, rpc.KindTopK, rpc.KindProject}, [2]uint64{9, 10}},
	}
	results := make([][2]*Result, len(queries))
	for mode, disable := range []bool{false, true} {
		cl := newCountingClient()
		opts := fusionTestOptions()
		opts.Pushdown = PushdownAlways
		opts.AggregatePushdown = true
		opts.DisableBatch = disable
		opts.Model = simnet.NewLatencyModel(cl.Config())
		s, err := New(cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			cl.reset()
			res, rt := queryRoundTrips(t, s, q.sql)
			results[qi][mode] = res
			t.Logf("%s disable=%v: round trips %d, top-level %v, in frames %v", q.name, disable, rt, cl.topLevel, cl.inFrame)
			if rt != q.rt[mode] {
				t.Errorf("%s disable=%v: %d data round trips, want %d", q.name, disable, rt, q.rt[mode])
			}
			for k, n := range cl.topLevel {
				t.Errorf("%s disable=%v: %d %v requests sent outside a batch frame", q.name, disable, n, k)
			}
			for _, k := range q.kinds {
				if len(cl.inFrame[k]) == 0 {
					t.Errorf("%s disable=%v: no %v sub-op reached a node", q.name, disable, k)
				}
			}
			if !disable {
				continue
			}
			for k, sizes := range cl.inFrame {
				for size, n := range sizes {
					if pushedKind(k) && size != 1 {
						t.Errorf("%s: %d %v sub-ops rode in %d-op frames, want 1-op frames", q.name, n, k, size)
					}
				}
			}
		}
	}
	for qi, q := range queries {
		b, u := results[qi][0], results[qi][1]
		if !reflect.DeepEqual(b.Columns, u.Columns) || !reflect.DeepEqual(b.Data, u.Data) ||
			!reflect.DeepEqual(b.AggLabels, u.AggLabels) || !reflect.DeepEqual(b.AggValues, u.AggValues) ||
			b.Rows != u.Rows {
			t.Errorf("%s: batched and per-op results differ", q.name)
		}
	}
}
