package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/tcpnet"
)

// numNodes is the cluster size RS(9,6) stripes span.
const numNodes = 9

// target is the surface every workload drives. The store satisfies it via
// storeTarget; the smoke test interposes a corrupting wrapper to prove the
// correctness checks bite.
type target interface {
	Get(ctx context.Context, name string, offset, length uint64) ([]byte, error)
	Put(ctx context.Context, name string, data []byte) (*store.PutStats, error)
	Query(ctx context.Context, q string) (*store.Result, error)
}

type storeTarget struct{ s *store.Store }

func (t storeTarget) Get(ctx context.Context, name string, offset, length uint64) ([]byte, error) {
	return t.s.GetContext(ctx, name, offset, length)
}

// Put streams data through the PutReader pipeline (a bytes.Reader is an
// io.ReaderAt, so stripes gather straight from the source).
func (t storeTarget) Put(ctx context.Context, name string, data []byte) (*store.PutStats, error) {
	return t.s.PutReader(ctx, name, bytes.NewReader(data), uint64(len(data)))
}

func (t storeTarget) Query(ctx context.Context, q string) (*store.Result, error) {
	return t.s.QueryContext(ctx, q)
}

// deployment is nine storage nodes served over loopback TCP inside this
// process, and one coordinator store reaching them through tcpnet.
type deployment struct {
	servers []*tcpnet.Server
	blocks  []*cluster.MemStore
	client  *tcpnet.Client
	store   *store.Store
	target  target
	meters  *meters // nil when untraced
}

// deploy starts the cluster. With m non-nil every layer boundary the
// benchmark can reach from outside is metered: node and wire histograms,
// a cluster.Client wrapper under the store and a BlockStore wrapper under
// each node.
func deploy(cacheBytes int64, m *meters) (*deployment, error) {
	d := &deployment{}
	addrs := make([]string, numNodes)
	for i := 0; i < numNodes; i++ {
		ms := cluster.NewMemStore()
		d.blocks = append(d.blocks, ms)
		var bs cluster.BlockStore = ms
		if m != nil {
			bs = &blockMeter{BlockStore: ms, m: m}
		}
		node := cluster.NewNode(i, bs)
		if m != nil {
			node.SetMetrics(m.hist)
		}
		srv, err := tcpnet.NewServer(node, "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, fmt.Errorf("deploy node %d: %w", i, err)
		}
		d.servers = append(d.servers, srv)
		addrs[i] = srv.Addr()
	}
	d.client = tcpnet.NewClient(addrs)
	var c cluster.Client = d.client
	if m != nil {
		d.client.SetMetrics(m.hist)
		c = &rpcMeter{next: d.client, m: m}
	}
	opts := store.FusionOptions()
	opts.CacheBytes = cacheBytes
	// The scan workload's pushed aggregate needs in-situ aggregation.
	opts.AggregatePushdown = true
	opts.Model = simnet.NewLatencyModel(simnet.DefaultConfig())
	st, err := store.New(c, opts)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("deploy store: %w", err)
	}
	d.store = st
	d.target = storeTarget{st}
	d.meters = m
	return d, nil
}

// storedBytes sums every node's at-rest bytes: data, parity, FAC padding
// and metadata.
func (d *deployment) storedBytes() uint64 {
	var n uint64
	for _, b := range d.blocks {
		n += b.TotalBytes()
	}
	return n
}

func (d *deployment) close() {
	if d.client != nil {
		d.client.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
}

// meters accumulates what the wrappers observe. Every figure is a sum over
// the traced window; report divides by the window's op count.
type meters struct {
	hist *metrics.HistogramSet // tcpnet net.write/net.read and node.<kind>

	mu  sync.Mutex
	rpc map[string]*rpcStat

	callNS      atomic.Int64 // time inside tcpnet.Client.Call
	batchSubops atomic.Int64
	rpcErrors   atomic.Int64

	bsPutBytes atomic.Int64
	bsGetBytes atomic.Int64
	bsGetCalls atomic.Int64
	bsNS       atomic.Int64
}

type rpcStat struct {
	calls, ns, reqBytes, respBytes int64
}

func newMeters() *meters {
	return &meters{hist: metrics.NewHistogramSet(), rpc: map[string]*rpcStat{}}
}

// reset zeroes every figure, so a window starts from nothing.
func (m *meters) reset() {
	m.hist.Reset()
	m.mu.Lock()
	m.rpc = map[string]*rpcStat{}
	m.mu.Unlock()
	for _, a := range []*atomic.Int64{&m.callNS, &m.batchSubops, &m.rpcErrors, &m.bsPutBytes, &m.bsGetBytes, &m.bsGetCalls, &m.bsNS} {
		a.Store(0)
	}
}

// rpcStats copies the per-class RPC figures. Abandoned hedges may still be
// calling after a window ends, so the map is read under the lock.
func (m *meters) rpcStats() map[string]rpcStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]rpcStat, len(m.rpc))
	for k, st := range m.rpc {
		out[k] = *st
	}
	return out
}

// rpcLabel names a request's RPC class: its kind, except that metakv
// traffic (block ids under "kv/") is split out as metadata.
func rpcLabel(req *rpc.Request) string {
	if strings.HasPrefix(req.BlockID, "kv/") {
		return "meta"
	}
	return strings.ToLower(req.Kind.String())
}

// rpcMeter wraps the transport under the store: it times every call and
// sizes both directions with the rpc package's wire-size estimate.
type rpcMeter struct {
	next cluster.Client
	m    *meters
}

func (r *rpcMeter) NumNodes() int { return r.next.NumNodes() }

func (r *rpcMeter) Call(node int, req *rpc.Request) (*rpc.Response, error) {
	start := time.Now()
	resp, err := r.next.Call(node, req)
	d := time.Since(start)
	r.m.callNS.Add(int64(d))
	r.m.batchSubops.Add(int64(len(req.Subs)))
	var respBytes uint64
	if resp != nil {
		respBytes = resp.WireSize()
	}
	if err != nil || (resp != nil && resp.Err != "") {
		r.m.rpcErrors.Add(1)
	}
	label := rpcLabel(req)
	r.m.mu.Lock()
	st := r.m.rpc[label]
	if st == nil {
		st = &rpcStat{}
		r.m.rpc[label] = st
	}
	st.calls++
	st.ns += int64(d)
	st.reqBytes += int64(req.WireSize())
	st.respBytes += int64(respBytes)
	r.m.mu.Unlock()
	return resp, err
}

// blockMeter wraps a node's block store.
type blockMeter struct {
	cluster.BlockStore
	m *meters
}

func (b *blockMeter) Put(id string, data []byte) error {
	start := time.Now()
	err := b.BlockStore.Put(id, data)
	b.m.bsNS.Add(int64(time.Since(start)))
	b.m.bsPutBytes.Add(int64(len(data)))
	return err
}

func (b *blockMeter) Get(id string, offset, length uint64) ([]byte, error) {
	start := time.Now()
	data, err := b.BlockStore.Get(id, offset, length)
	b.m.bsNS.Add(int64(time.Since(start)))
	b.m.bsGetCalls.Add(1)
	b.m.bsGetBytes.Add(int64(len(data)))
	return data, err
}

func (b *blockMeter) Size(id string) (uint64, error) {
	start := time.Now()
	n, err := b.BlockStore.Size(id)
	b.m.bsNS.Add(int64(time.Since(start)))
	return n, err
}

func (b *blockMeter) Delete(id string) error {
	start := time.Now()
	err := b.BlockStore.Delete(id)
	b.m.bsNS.Add(int64(time.Since(start)))
	return err
}
