package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/cache"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/erasure"
	"github.com/fusionstore/fusion/internal/metakv"
	"github.com/fusionstore/fusion/internal/metrics"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sched"
	"github.com/fusionstore/fusion/internal/simnet"
	"github.com/fusionstore/fusion/internal/trace"
)

// PushdownPolicy selects how the projection stage treats each column chunk.
type PushdownPolicy uint8

const (
	// PushdownAdaptive applies the paper's cost equation per chunk:
	// selectivity × compressibility < 1 (§4.3). Fusion's default.
	PushdownAdaptive PushdownPolicy = iota
	// PushdownAlways pushes every projection down (ablation).
	PushdownAlways
	// PushdownNever fetches every chunk to the coordinator (ablation).
	PushdownNever
)

func (p PushdownPolicy) String() string {
	switch p {
	case PushdownAdaptive:
		return "adaptive"
	case PushdownAlways:
		return "always"
	default:
		return "never"
	}
}

// ExecMode selects the query execution strategy.
type ExecMode uint8

const (
	// ExecPushdown is Fusion's two-stage distributed execution.
	ExecPushdown ExecMode = iota
	// ExecReassemble is the baseline: fetch the needed chunk bytes to the
	// coordinator (reassembling splits), then process locally.
	ExecReassemble
)

// Options configure a Store.
type Options struct {
	// Params is the erasure code; default RS(9,6).
	Params erasure.Params
	// Layout selects FAC or fixed-block coding on Put.
	Layout LayoutMode
	// Exec selects the query execution strategy.
	Exec ExecMode
	// Pushdown is the projection pushdown policy under ExecPushdown.
	Pushdown PushdownPolicy
	// StorageBudget is the FAC overhead budget relative to optimal; if
	// Algorithm 1 exceeds it, Put falls back to fixed blocks (§4.2).
	// Default 0.02 (the paper's 2%).
	StorageBudget float64
	// FixedBlockSize is the block size for fixed-block coding; default
	// 100MB (§6), scaled down by benchmarks alongside their datasets.
	FixedBlockSize uint64
	// AggregatePushdown enables computing aggregates in-situ on storage
	// nodes (partial accumulators instead of values cross the network).
	// This is the aggregate-pushdown extension the paper lists as future
	// work (§5); it applies to aggregate columns that are not also plainly
	// projected.
	AggregatePushdown bool
	// QueryWorkers bounds the worker pool that fans the filter stage out
	// across row groups and the projection/aggregation stage out across
	// chunks. 0 means runtime.GOMAXPROCS; 1 runs queries serially. Results
	// are merged in row-group/chunk order, so query output is identical at
	// every pool size.
	QueryWorkers int
	// Retry bounds the transport retry/backoff/deadline behavior of every
	// coordinator→node call. The zero value applies cluster.DefaultPolicy
	// semantics: 3 attempts, exponential backoff with jitter, ErrNodeDown
	// fails fast (the reconstruction fan-out is the better retry).
	Retry cluster.Policy
	// HedgeAfter, when positive, hedges block reads: if a direct read has
	// not completed within this threshold, Get fires the RS reconstruction
	// fan-out concurrently and takes whichever finishes first. 0 disables
	// hedging (the reconstruction still runs, but only after the direct
	// read has failed outright).
	HedgeAfter time.Duration
	// Health, when set, receives per-node failure/retry/hedge counters. New
	// installs a fresh recorder when nil, exposed via Store.Health.
	Health *metrics.Health
	// Metrics, when set, receives per-(op, node) latency histograms from
	// every coordinator→node RPC and every top-level operation — the data
	// behind /debug/fusionz and fusion-bench's percentile tables. Nil (the
	// default) disables all timing.
	Metrics *metrics.HistogramSet
	// SkipChecksumVerify disables the coordinator-side end-to-end checksum
	// checks on reads (node replies and pre-decode survivor verification).
	// Node-side at-rest verification still runs. Intended for benchmarking
	// the verification cost, not for production use.
	SkipChecksumVerify bool
	// Breaker, when set, is the per-node circuit breaker consulted by every
	// coordinator→node call: a node whose circuit is open fails fast with
	// ErrNodeDown instead of burning a transport attempt. Nil disables
	// circuit breaking.
	Breaker *cluster.Breaker
	// Repair bounds the repair queue and the background repair manager.
	// Zero values apply defaults (see RepairConfig).
	Repair RepairConfig
	// CacheBytes is the byte budget of the coordinator's read cache for
	// verified block bytes and decoded column chunks, shared across both
	// data tiers. It also arms the singleflight layer that dedups
	// concurrent identical block fetches and RS reconstructions. 0 (the
	// default) disables the data tiers and singleflight; the metadata
	// cache below stays on regardless.
	CacheBytes int64
	// MetaCacheEntries bounds the coordinator's ObjectMeta cache (hot
	// objects skip the metakv quorum read). 0 applies the default (4096
	// objects). The tier is epoch-safe: an overwrite or delete refreshes
	// or drops the entry at its commit point, and every stale-suspicious
	// read re-resolves against the quorum.
	MetaCacheEntries int
	// DisableBatch shrinks scatter-gather frames to one sub-op each: every
	// pushed filter, projection, aggregate, GROUP BY and top-k op, and every
	// prefetched block read, costs its own round trip. The dispatch path is
	// otherwise the same. Intended for A/B benchmarks of the batching
	// layer; leave false in production.
	DisableBatch bool
	// Sched, when set, is the admission scheduler every top-level operation
	// (Get, Put, Delete, Query) passes through before doing any work:
	// per-tenant weighted-fair queuing under global and per-class concurrency
	// caps, with explicit load shedding (sched.ErrOverloaded) once a tenant's
	// queue is full or the estimated wait exceeds the caller's deadline. Nil
	// (the default) disables admission control entirely.
	Sched *sched.Scheduler
	// Tenant is the tenant this store's operations are accounted to by the
	// admission scheduler when the caller's context carries none
	// (sched.WithTenant overrides it per call). Empty means
	// sched.DefaultTenant.
	Tenant string
	// Seed drives stripe placement.
	Seed int64
	// Model, when set, computes simulated query latencies from the
	// operation cost sheets (simnet experiments). Nil for TCP deployments.
	Model *simnet.LatencyModel
}

// FusionOptions returns Fusion's configuration: FAC coding, two-stage
// pushdown execution, adaptive cost model, 2% budget.
func FusionOptions() Options {
	return Options{
		Params:         erasure.RS96,
		Layout:         LayoutFAC,
		Exec:           ExecPushdown,
		Pushdown:       PushdownAdaptive,
		StorageBudget:  0.02,
		FixedBlockSize: 100 << 20,
		Seed:           1,
	}
}

// BaselineOptions returns the paper's baseline: fixed-block coding with
// coordinator-side reassembly (MinIO/Ceph-representative, §6), including
// the footer-pruning optimization.
func BaselineOptions() Options {
	o := FusionOptions()
	o.Layout = LayoutFixed
	o.Exec = ExecReassemble
	o.Pushdown = PushdownNever
	return o
}

// Store is an analytics object store client/coordinator bound to a cluster.
// Every node can act as coordinator; a Store embodies the coordinator role
// for the requests routed to it (§5: requests route to a node by object-name
// hash — see CoordinatorFor).
type Store struct {
	client  cluster.Client
	opts    Options
	coder   *erasure.Coder
	retry   cluster.Policy
	health  *metrics.Health
	hist    *metrics.HistogramSet
	repairs *repairQueue
	cache   *cache.Cache
	sched   *sched.Scheduler

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a Store over the given cluster client.
func New(client cluster.Client, opts Options) (*Store, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if opts.Params.N > client.NumNodes() {
		return nil, fmt.Errorf("store: %v needs %d nodes, cluster has %d",
			opts.Params, opts.Params.N, client.NumNodes())
	}
	if opts.StorageBudget == 0 {
		opts.StorageBudget = 0.02
	}
	if opts.FixedBlockSize == 0 {
		opts.FixedBlockSize = 100 << 20
	}
	coder, err := erasure.NewCoder(opts.Params)
	if err != nil {
		return nil, err
	}
	health := opts.Health
	if health == nil {
		health = metrics.NewHealth()
	}
	retry := opts.Retry
	retry.Health = health
	if retry.Breaker == nil {
		retry.Breaker = opts.Breaker
	}
	return &Store{
		client:  client,
		opts:    opts,
		coder:   coder,
		retry:   retry,
		health:  health,
		hist:    opts.Metrics,
		repairs: newRepairQueue(opts.Repair.QueueLimit),
		cache: cache.New(cache.Config{
			Bytes:       opts.CacheBytes,
			MetaEntries: opts.MetaCacheEntries,
		}),
		sched: opts.Sched,
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}, nil
}

// SchedStats snapshots the admission scheduler's per-tenant counters (the
// zero value when no scheduler is configured).
func (s *Store) SchedStats() sched.Stats { return s.sched.Stats() }

// admit passes one top-level operation through the admission scheduler.
// With no scheduler configured it admits immediately. The returned release
// must be called when the operation finishes (it frees the slot and
// dispatches the next queued waiter); time spent queued is charged to the
// request span so traces show added-by-choice latency separately from
// service time.
func (s *Store) admit(ctx context.Context, sp *trace.Span, class sched.Class) (release func(), err error) {
	release, wait, err := s.sched.Acquire(ctx, s.opts.Tenant, class)
	if err != nil {
		return nil, err
	}
	if wait > 0 {
		sp.Count(trace.QueueWaitMicros, uint64(wait.Microseconds()))
	}
	return release, nil
}

// Health returns the store's per-node failure/retry/hedge counters.
func (s *Store) Health() *metrics.Health { return s.health }

// Breaker returns the circuit breaker guarding coordinator→node calls
// (nil when none is configured).
func (s *Store) Breaker() *cluster.Breaker { return s.retry.Breaker }

// Metrics returns the store's latency histogram set (nil unless
// Options.Metrics was set).
func (s *Store) Metrics() *metrics.HistogramSet { return s.hist }

// opKey is the histogram key for a coordinator-level operation.
func opKey(op string) metrics.Key {
	return metrics.Key{Op: "op." + op, Node: metrics.NodeNone}
}

// call is the hardened transport entry for coordinator→node RPCs: bounded
// retries with backoff and per-attempt deadlines per Options.Retry, with
// per-node health accounting, all bounded end to end by ctx — a done
// context issues no attempt, and a context deadline is stamped onto the
// request as a relative microsecond budget (rpc.Request.DeadlineMicros) so
// the node, too, can refuse or abandon expired work. When sp is non-nil the
// call charges its RPC, retry and bytes-from-node counters to that request
// span; when the store has a histogram set, the call's latency is recorded
// under the node and request kind. Both are nil by default and then cost
// nothing.
func (s *Store) call(ctx context.Context, sp *trace.Span, node int, req *rpc.Request) (*rpc.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, context.DeadlineExceeded
		}
		// Round the budget up so a sub-microsecond remainder is never
		// stamped as "no deadline".
		req.DeadlineMicros = rem.Microseconds() + 1
	}
	if sp == nil && s.hist == nil {
		resp, _, err := cluster.CallRetryCtx(ctx, s.client, node, req, s.retry)
		return resp, err
	}
	start := time.Now()
	resp, attempts, err := cluster.CallRetryCtx(ctx, s.client, node, req, s.retry)
	s.hist.Observe(metrics.Key{Op: "rpc." + req.Kind.String(), Node: node}, time.Since(start))
	sp.Count(trace.RPCs, uint64(attempts))
	if isDataKind(req.Kind) {
		// Every transport attempt of a data-plane request is one network
		// round trip — a whole scatter-gather batch counts once, which is
		// exactly the economy the batching layer buys.
		sp.Count(trace.RoundTrips, uint64(attempts))
	}
	if attempts > 1 {
		sp.Count(trace.Retries, uint64(attempts-1))
	}
	if resp != nil {
		n := uint64(len(resp.Data))
		for i := range resp.Subs {
			n += uint64(len(resp.Subs[i].Data))
		}
		sp.Count(trace.BytesFromNodes, n)
	}
	return resp, err
}

// isDataKind reports whether a request kind moves or scans block data (the
// round-trip-counted data plane, as opposed to metadata and control traffic).
// Pushed query ops always travel inside KindBatch frames.
func isDataKind(k rpc.Kind) bool {
	return k == rpc.KindGetBlock || k == rpc.KindBatch
}

// callChecked is call with application errors converted to Go errors. A
// node-side deadline rejection surfaces as context.DeadlineExceeded (via
// errors.Is) so callers and the load harness classify it like any other
// expired request.
func (s *Store) callChecked(ctx context.Context, sp *trace.Span, node int, req *rpc.Request) (*rpc.Response, error) {
	resp, err := s.call(ctx, sp, node, req)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		if cluster.IsExpiredErr(resp.Err) {
			return resp, fmt.Errorf("cluster: node %d: %s: %w", node, resp.Err, context.DeadlineExceeded)
		}
		return resp, fmt.Errorf("cluster: node %d: %s", node, resp.Err)
	}
	return resp, nil
}

// Options returns the store's configuration.
func (s *Store) Options() Options { return s.opts }

// queryWorkers resolves the query-stage worker pool size.
func (s *Store) queryWorkers() int {
	if w := s.opts.QueryWorkers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// CoordinatorFor returns the node that coordinates requests for an object:
// hash(name) mod cluster size (§5: no dedicated coordinator).
func (s *Store) CoordinatorFor(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32()) % s.client.NumNodes()
}

// nodeOrder returns all node ids in a fresh random order — the candidate
// list for a stripe's placement (§4.2: blocks go to randomly chosen nodes).
func (s *Store) nodeOrder() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Perm(s.client.NumNodes())
}

// blockID names a stored block. The epoch makes every write attempt
// write-aside: a failed or crashed Put's blocks can never collide with (or
// be mistaken for) a later attempt's, because epochs are never reused.
func blockID(object string, epoch uint64, stripe, block int) string {
	return fmt.Sprintf("%s/e%d/s%d/b%d", object, epoch, stripe, block)
}

// parseBlockID inverts blockID. Object names may themselves contain "/", so
// the fixed-shape suffix is parsed from the right.
func parseBlockID(id string) (object string, epoch uint64, stripe, block int, ok bool) {
	rest := id
	for i := 0; i < 3; i++ {
		slash := strings.LastIndexByte(rest, '/')
		if slash < 0 {
			return "", 0, 0, 0, false
		}
		seg := rest[slash+1:]
		rest = rest[:slash]
		var n uint64
		var err error
		switch {
		case i == 0 && strings.HasPrefix(seg, "b"):
			n, err = strconv.ParseUint(seg[1:], 10, 32)
			block = int(n)
		case i == 1 && strings.HasPrefix(seg, "s"):
			n, err = strconv.ParseUint(seg[1:], 10, 32)
			stripe = int(n)
		case i == 2 && strings.HasPrefix(seg, "e"):
			epoch, err = strconv.ParseUint(seg[1:], 10, 64)
		default:
			return "", 0, 0, 0, false
		}
		if err != nil {
			return "", 0, 0, 0, false
		}
	}
	if rest == "" {
		return "", 0, 0, 0, false
	}
	return rest, epoch, stripe, block, true
}

// metaKey is the quorum-register key holding an object's metadata.
func metaKey(object string) string { return "meta/" + object }

// epochKey is the quorum-register key of an object's epoch allocator; the
// register's version is the counter, its value stays empty.
func epochKey(object string) string { return "epoch/" + object }

// allocEpoch reserves the object's next write epoch on a metadata-replica
// majority. The reservation is durable before any block carries the epoch,
// so a crashed attempt's epoch is burned, never recycled.
func (s *Store) allocEpoch(name string) (uint64, error) {
	kv, err := s.metaKV(name)
	if err != nil {
		return 0, err
	}
	epoch, err := kv.Incr(epochKey(name))
	if err != nil {
		return 0, fmt.Errorf("store: allocating epoch for %q: %w", name, err)
	}
	return epoch, nil
}

// metaBlockID names the node-side block backing an object's metadata
// replica (for storage audits and tests).
func metaBlockID(object string) string { return metakv.BlockID(metaKey(object)) }

// metaKV returns the quorum register over the object's k+1 metadata
// replicas (§5; the ZooKeeper/etcd-style service of the paper's future
// work, here an ABD majority register). It tolerates floor(k/2) metadata
// replica failures with linearizable reads — in particular, a replica that
// missed an overwrite can never serve stale metadata pointing at
// garbage-collected blocks.
func (s *Store) metaKV(name string) (*metakv.KV, error) {
	return metakv.New(s.client, s.metaReplicaNodes(name))
}

// metaReplicaNodes returns the k+1 nodes that hold an object's metadata
// (§5: the location map is replicated to k+1 nodes).
func (s *Store) metaReplicaNodes(name string) []int {
	n := s.client.NumNodes()
	first := s.CoordinatorFor(name)
	count := s.opts.Params.K + 1
	if count > n {
		count = n
	}
	nodes := make([]int, count)
	for i := range nodes {
		nodes[i] = (first + i) % n
	}
	return nodes
}

// cacheOn reports whether the data tiers (block bytes, decoded chunks) and
// the singleflight layer are enabled.
func (s *Store) cacheOn() bool { return s.opts.CacheBytes > 0 }

// cacheMeta stores metadata in the coordinator cache.
func (s *Store) cacheMeta(m *ObjectMeta) {
	s.cache.PutMeta(m.Name, m)
}

// cachedMeta returns cached metadata, if any.
func (s *Store) cachedMeta(name string) *ObjectMeta {
	if v, ok := s.cache.GetMeta(name); ok {
		return v.(*ObjectMeta)
	}
	return nil
}

// CacheStats snapshots the coordinator cache counters (tier hit rates,
// residency, singleflight dedups, executed RS decodes).
func (s *Store) CacheStats() metrics.CacheStats { return s.cache.Stats() }

// blockKeyOf is the cache key of one stored block's verified bytes.
func blockKeyOf(meta *ObjectMeta, stripe, bin int) cache.Key {
	return cache.Key{Object: meta.Name, Epoch: meta.Epoch, Kind: cache.KindBlock, A: stripe, B: bin}
}

// chunkKeyOf is the cache key of one decoded column chunk.
func chunkKeyOf(meta *ObjectMeta, rowGroup, col int) cache.Key {
	return cache.Key{Object: meta.Name, Epoch: meta.Epoch, Kind: cache.KindChunk, A: rowGroup, B: col}
}

// Objects lists the names of objects known to this coordinator.
func (s *Store) Objects() []string {
	return s.cache.MetaNames()
}
