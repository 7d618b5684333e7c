package store

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/fusionstore/fusion/internal/bufpool"
	"github.com/fusionstore/fusion/internal/cluster"
	"github.com/fusionstore/fusion/internal/rpc"
	"github.com/fusionstore/fusion/internal/sched"
	"github.com/fusionstore/fusion/internal/trace"
)

// ErrTooManyFailures is the sentinel for a degraded operation that ran out
// of redundancy: fewer than k of a stripe's n blocks were readable, so the
// RS code cannot reconstruct. Every unrecoverable degraded-path error wraps
// it (errors.Is), which is what the chaos tests assert once failures exceed
// the code's n−k tolerance.
var ErrTooManyFailures = errors.New("store: too many failures")

// Get reads length bytes of the object starting at offset (length 0 = to
// the end). Reads survive up to n−k node failures: a block on a down node
// is rebuilt from the rest of its stripe via RS reconstruction (a degraded
// read, §5 "Recovery and Fault Tolerance").
func (s *Store) Get(name string, offset, length uint64) ([]byte, error) {
	return s.GetContext(context.Background(), name, offset, length)
}

// GetContext is Get under a context. When the context carries a trace span
// (trace.Start), the read records a span tree — meta read, per-block RPCs,
// reconstructions — plus byte counters for read amplification; an untraced
// context costs nothing.
func (s *Store) GetContext(ctx context.Context, name string, offset, length uint64) ([]byte, error) {
	sp := trace.FromContext(ctx).Child("store.Get")
	defer sp.End()
	release, err := s.admit(ctx, sp, sched.ClassPoint)
	if err != nil {
		return nil, err
	}
	defer release()
	if s.hist != nil {
		defer func(start time.Time) {
			s.hist.Observe(opKey("Get"), time.Since(start))
		}(time.Now())
	}
	msp := sp.Child("meta")
	meta, err := s.Meta(name)
	msp.End()
	if err != nil {
		return nil, err
	}
	data, err := s.getWithMeta(ctx, sp, meta, offset, length)
	if err != nil {
		// The metadata may have been captured before a concurrent
		// overwrite committed: the blocks it points at can be
		// garbage-collected mid-read. Re-resolve against the quorum and
		// retry once iff the object really moved to a newer epoch.
		if fresh := s.refreshedMeta(name, meta); fresh != nil {
			return s.getWithMeta(ctx, sp, fresh, offset, length)
		}
	}
	return data, err
}

// getWithMeta runs a Get against one specific metadata snapshot.
func (s *Store) getWithMeta(ctx context.Context, sp *trace.Span, meta *ObjectMeta, offset, length uint64) ([]byte, error) {
	if offset > meta.Size {
		return nil, fmt.Errorf("store: offset %d beyond object of %d bytes", offset, meta.Size)
	}
	if length == 0 {
		length = meta.Size - offset
	}
	// Overflow-safe range check: offset+length can wrap uint64 (e.g.
	// length = ^uint64(0)), so never compare the sum against Size.
	if length > meta.Size-offset {
		return nil, fmt.Errorf("store: range [%d,+%d) beyond object of %d bytes", offset, length, meta.Size)
	}
	if length == 0 {
		return []byte{}, nil
	}
	sp.Count(trace.BytesRequested, length)
	if meta.Mode == LayoutFAC {
		return s.getFAC(ctx, sp, meta, offset, length)
	}
	return s.getFixed(ctx, sp, meta, offset, length)
}

// refreshedMeta re-resolves an object's metadata against the quorum after a
// failed read, returning it only when the object has actually moved to a
// different epoch (the stale-snapshot case worth retrying). The fresh
// metadata replaces the cached entry and every data-tier entry of older
// epochs is dropped.
func (s *Store) refreshedMeta(name string, old *ObjectMeta) *ObjectMeta {
	fresh, err := s.metaQuorum(name)
	if err != nil || fresh.Epoch == old.Epoch {
		return nil
	}
	s.cacheMeta(fresh)
	s.cache.InvalidateObject(name, fresh.Epoch)
	return fresh
}

// segment is one contiguous piece of a Get: a byte range of one stripe's
// data bin, destined for out[outStart:outStart+length].
type segment struct {
	stripe, bin int
	off, length uint64
	outStart    uint64
}

// getFAC gathers the range from the items covering it.
func (s *Store) getFAC(ctx context.Context, sp *trace.Span, meta *ObjectMeta, offset, length uint64) ([]byte, error) {
	segs := make([]segment, 0, len(meta.Items))
	var pos uint64
	end := offset + length
	for i, it := range meta.Items {
		itEnd := it.Offset + it.Size
		if itEnd <= offset || it.Offset >= end || it.Size == 0 {
			continue
		}
		a := max(offset, it.Offset) - it.Offset // start within item
		b := min(end, itEnd) - it.Offset        // end within item
		loc := meta.ItemLocs[i]
		segs = append(segs, segment{
			stripe: loc.Stripe, bin: loc.Bin,
			off: loc.BinOffset + a, length: b - a, outStart: pos,
		})
		pos += b - a
	}
	if pos != length {
		return nil, fmt.Errorf("store: assembled %d bytes, want %d", pos, length)
	}
	return s.readSegments(ctx, sp, meta, segs, length)
}

// getFixed gathers the range from fixed blocks.
func (s *Store) getFixed(ctx context.Context, sp *trace.Span, meta *ObjectMeta, offset, length uint64) ([]byte, error) {
	var segs []segment
	bs := meta.BlockSize
	k := uint64(s.opts.Params.K)
	end := offset + length
	for pos := offset; pos < end; {
		blockIdx := pos / bs
		stripe := int(blockIdx / k)
		bin := int(blockIdx % k)
		within := pos - blockIdx*bs
		n := min(bs-within, end-pos)
		segs = append(segs, segment{
			stripe: stripe, bin: bin, off: within, length: n, outStart: pos - offset,
		})
		pos += n
	}
	return s.readSegments(ctx, sp, meta, segs, length)
}

// readSegments assembles a Get's segments into one buffer. Segments that
// together cover their whole block — the common case for full-object and
// row-group reads, where the items of a block tile it exactly — are served
// by a single whole-block read, fetched and verified once no matter how
// many items it holds; the rest fall back to per-range reads. Coalescing is
// what keeps verified reads at one checksum pass per block end to end: the
// coordinator checks the received block against the stripe checksum in its
// own metadata (covering both bit rot and transit corruption), so the node
// is told to skip its redundant at-rest pass.
func (s *Store) readSegments(ctx context.Context, sp *trace.Span, meta *ObjectMeta, segs []segment, length uint64) ([]byte, error) {
	out := make([]byte, length)
	// Bytes requested per block; ranges never overlap (items are disjoint),
	// so covering DataLens bytes means tiling the whole block.
	covered := make(map[blockKey]uint64, len(segs))
	for _, g := range segs {
		covered[blockKey{g.stripe, g.bin}] += g.length
	}
	whole := make(map[blockKey][]byte)
	if s.opts.HedgeAfter <= 0 {
		// Scatter-gather: collect the distinct whole-block reads this Get
		// needs and fetch them with one batch frame per node, instead of one
		// round trip per block. Blocks the prefetch could not serve fall
		// back to the direct (retrying, reconstructing) reads below. Hedged
		// Gets skip the prefetch: each of their range reads races a
		// reconstruction on its own timer.
		var need []blockKey
		seen := make(map[blockKey]bool, len(covered))
		for _, g := range segs {
			key := blockKey{g.stripe, g.bin}
			st := meta.Stripes[g.stripe]
			if g.bin < len(st.DataLens) && covered[key] == st.DataLens[g.bin] && !seen[key] {
				seen[key] = true
				need = append(need, key)
			}
		}
		whole = s.prefetchWholeBlocks(ctx, sp, meta, need)
	}
	for _, g := range segs {
		key := blockKey{g.stripe, g.bin}
		st := meta.Stripes[g.stripe]
		if s.opts.HedgeAfter > 0 || g.bin >= len(st.DataLens) || covered[key] != st.DataLens[g.bin] {
			data, err := s.readStripeRange(ctx, sp, meta, g.stripe, g.bin, g.off, g.length)
			if err != nil {
				return nil, err
			}
			copy(out[g.outStart:], data)
			continue
		}
		block, ok := whole[key]
		if !ok {
			var err error
			block, err = s.readWholeBlock(ctx, sp, meta, g.stripe, g.bin)
			if err != nil {
				return nil, err
			}
			whole[key] = block
		}
		data, err := sliceBlock(block, g.off, g.length)
		if err != nil {
			return nil, err
		}
		copy(out[g.outStart:], data)
	}
	return out, nil
}

// readWholeBlock reads one entire data block, serving it from the
// coordinator cache when possible. Cached bytes were CRC-verified on fill
// (cacheFillBlock admits nothing else), so a hit skips verification
// entirely and — because it never touches s.call — contributes zero
// bytes-from-nodes to read amplification. Misses are deduplicated by the
// singleflight layer: N concurrent readers of one block trigger one fetch.
func (s *Store) readWholeBlock(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, bin int) ([]byte, error) {
	if !s.cacheOn() {
		return s.fetchWholeBlock(ctx, sp, meta, stripe, bin)
	}
	if v, ok := s.cache.Get(blockKeyOf(meta, stripe, bin)); ok {
		sp.Count(trace.CacheHits, 1)
		return v.([]byte), nil
	}
	v, err, _ := s.cache.Do("b/"+meta.Stripes[stripe].BlockIDs[bin], func() (any, error) {
		block, err := s.fetchWholeBlock(ctx, sp, meta, stripe, bin)
		if err != nil {
			return nil, err
		}
		s.cacheFillBlock(meta, stripe, bin, block)
		return block, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// cacheFillBlock admits one block's bytes to the cache. Admission requires
// a successful CRC check against the stripe metadata — that verification is
// what lets hits skip the read path's own pass — so nothing is cached when
// verification is off or the stripe predates recorded checksums.
func (s *Store) cacheFillBlock(meta *ObjectMeta, stripe, bin int, block []byte) {
	if !s.cacheOn() || s.opts.SkipChecksumVerify {
		return
	}
	st := meta.Stripes[stripe]
	if bin >= len(st.Checksums) || cluster.Checksum(block) != st.Checksums[bin] {
		return
	}
	s.cache.Put(blockKeyOf(meta, stripe, bin), block, uint64(len(block)))
}

// fetchWholeBlock reads one entire data block from its node. When
// verification is on and the stripe metadata records the block's checksum,
// the received bytes are verified against that record — one pass at the
// coordinator catching both a rotted block and a reply corrupted in flight
// — and the node is told to skip its own at-rest pass. A failed read or a
// checksum mismatch enqueues a repair and serves the block from the
// stripe's redundancy instead.
func (s *Store) fetchWholeBlock(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, bin int) ([]byte, error) {
	bsp := sp.Child("block")
	defer bsp.End()
	st := meta.Stripes[stripe]
	verify := !s.opts.SkipChecksumVerify && bin < len(st.Checksums)
	resp, err := s.call(ctx, bsp, st.Nodes[bin], &rpc.Request{
		Kind: rpc.KindGetBlock, BlockID: st.BlockIDs[bin], CallerVerifies: verify,
	})
	var fail error
	switch {
	case err != nil:
		fail = err
	case resp.Err != "":
		if cluster.IsChecksumErr(resp.Err) {
			bsp.Count(trace.ChecksumFailures, 1)
			s.enqueueRepair(RepairItem{Object: meta.Name, Epoch: meta.Epoch, Stripe: stripe, Block: bin})
		}
		fail = errors.New(resp.Err)
	case verify && cluster.Checksum(resp.Data) != st.Checksums[bin]:
		bsp.Count(trace.ChecksumFailures, 1)
		s.enqueueRepair(RepairItem{Object: meta.Name, Epoch: meta.Epoch, Stripe: stripe, Block: bin})
		fail = fmt.Errorf("store: block %s failed verification against stripe checksum", st.BlockIDs[bin])
	case !verify && !s.opts.SkipChecksumVerify && cluster.Checksum(resp.Data) != resp.Crc:
		// Legacy stripe without recorded checksums: end-to-end check
		// against the CRC the node claims, as checkDirectRead does.
		bsp.Count(trace.ChecksumFailures, 1)
		s.enqueueRepair(RepairItem{Object: meta.Name, Epoch: meta.Epoch, Stripe: stripe, Block: bin})
		fail = fmt.Errorf("store: block %s: reply failed end-to-end checksum", st.BlockIDs[bin])
	default:
		return resp.Data, nil
	}
	// A dead context dooms the reconstruction fan-out too; surface the
	// caller's cancellation, not a misleading too-many-failures.
	if cerr := abandoned(ctx, fail); cerr != nil {
		return nil, fmt.Errorf("store: read abandoned (direct: %v): %w", fail, cerr)
	}
	block, derr := s.reconstructBlock(ctx, bsp, meta, stripe, bin)
	if derr != nil {
		if cerr := ctx.Err(); cerr != nil {
			// The deadline fired mid-reconstruction: the caller's budget,
			// not shard availability, is what failed this read.
			return nil, fmt.Errorf("store: read abandoned (direct: %v; degraded: %v): %w", fail, derr, cerr)
		}
		return nil, fmt.Errorf("store: degraded read failed (direct: %v): %w", fail, derr)
	}
	return block, nil
}

// readStripeRange reads [off, off+length) of data block bin in a stripe,
// reconstructing the block from the stripe's survivors when its node is
// unreachable or its block is missing. With Options.HedgeAfter set, a
// direct read that is merely slow also races a reconstruction fan-out and
// the first result wins.
func (s *Store) readStripeRange(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, bin int, off, length uint64) ([]byte, error) {
	// With the cache enabled, partial reads are served at block
	// granularity: a hit slices resident verified bytes, a miss fetches
	// (and caches) the whole block so the next range of the same block is
	// a hit. The hedged path keeps its range reads but still checks for a
	// resident block first.
	if s.cacheOn() {
		if v, ok := s.cache.Get(blockKeyOf(meta, stripe, bin)); ok {
			sp.Count(trace.CacheHits, 1)
			return sliceBlock(v.([]byte), off, length)
		}
		if s.opts.HedgeAfter <= 0 && bin < len(meta.Stripes[stripe].DataLens) {
			block, err := s.readWholeBlock(ctx, sp, meta, stripe, bin)
			if err != nil {
				return nil, err
			}
			return sliceBlock(block, off, length)
		}
	}
	bsp := sp.Child("block")
	defer bsp.End()
	st := meta.Stripes[stripe]
	req := &rpc.Request{
		Kind: rpc.KindGetBlock, BlockID: st.BlockIDs[bin], Offset: off, Length: length,
	}
	if s.opts.HedgeAfter > 0 {
		return s.readStripeRangeHedged(ctx, bsp, meta, stripe, bin, off, length, req)
	}
	resp, err := s.call(ctx, bsp, st.Nodes[bin], req)
	data, err := s.checkDirectRead(bsp, meta, stripe, bin, resp, err)
	if err == nil {
		return data, nil
	}
	if cerr := abandoned(ctx, err); cerr != nil {
		return nil, fmt.Errorf("store: read abandoned (direct: %v): %w", err, cerr)
	}
	// Degraded read: rebuild the whole block, then slice. A checksum
	// failure lands here too — the rotted block is an erasure, the read is
	// served from the stripe's redundancy, and the repair queue already has
	// the block.
	block, derr := s.reconstructBlock(ctx, bsp, meta, stripe, bin)
	if derr != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("store: read abandoned (direct: %v; degraded: %v): %w", err, derr, cerr)
		}
		return nil, fmt.Errorf("store: degraded read failed (direct: %v): %w", err, derr)
	}
	return sliceBlock(block, off, length)
}

// abandoned returns the caller's cancellation behind a failed direct read,
// or nil. The call layer fails a request whose deadline has passed by the
// clock before the context's own timer has fired, so a deadline error from
// the read counts even while ctx.Err() is still nil.
func abandoned(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return nil
}

// checkDirectRead validates one direct block read. Transport errors pass
// through; application errors become errors, and both flavors of checksum
// failure — the node refusing a rotted block at rest, or the reply failing
// its end-to-end CRC in flight — additionally count a ChecksumFailure and
// enqueue the block for repair before the caller falls into the
// reconstruct-and-serve path.
func (s *Store) checkDirectRead(sp *trace.Span, meta *ObjectMeta, stripe, bin int, resp *rpc.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		if cluster.IsChecksumErr(resp.Err) {
			sp.Count(trace.ChecksumFailures, 1)
			s.enqueueRepair(RepairItem{Object: meta.Name, Epoch: meta.Epoch, Stripe: stripe, Block: bin})
		}
		return nil, errors.New(resp.Err)
	}
	if !s.opts.SkipChecksumVerify && cluster.Checksum(resp.Data) != resp.Crc {
		sp.Count(trace.ChecksumFailures, 1)
		s.enqueueRepair(RepairItem{Object: meta.Name, Epoch: meta.Epoch, Stripe: stripe, Block: bin})
		return nil, fmt.Errorf("store: block %s: reply failed end-to-end checksum",
			meta.Stripes[stripe].BlockIDs[bin])
	}
	return resp.Data, nil
}

// readStripeRangeHedged races the direct read against a reconstruction
// fan-out fired once the direct read exceeds the hedging threshold.
func (s *Store) readStripeRangeHedged(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, bin int, off, length uint64, req *rpc.Request) ([]byte, error) {
	node := meta.Stripes[stripe].Nodes[bin]
	type result struct {
		data   []byte
		err    error
		hedged bool
	}
	results := make(chan result, 2) // buffered: late finishers never block
	go func() {
		resp, err := s.call(ctx, sp, node, req)
		data, err := s.checkDirectRead(sp, meta, stripe, bin, resp, err)
		results <- result{data: data, err: err}
	}()
	launchHedge := func() {
		go func() {
			block, err := s.reconstructBlock(ctx, sp, meta, stripe, bin)
			if err != nil {
				results <- result{err: err, hedged: true}
				return
			}
			data, err := sliceBlock(block, off, length)
			results <- result{data: data, err: err, hedged: true}
		}()
	}
	timer := time.NewTimer(s.opts.HedgeAfter)
	defer timer.Stop()
	pending := 1
	hedgeLaunched := false
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			// The caller gave up: stop waiting. Both racers write to a
			// buffered channel and their own RPCs observe ctx, so nothing
			// leaks.
			return nil, ctx.Err()
		case r := <-results:
			pending--
			if r.err == nil {
				if r.hedged {
					s.health.HedgeWin(node)
					sp.Count(trace.HedgeWins, 1)
				}
				return r.data, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !hedgeLaunched {
				// Direct read failed before the threshold: reconstruct now.
				hedgeLaunched = true
				pending++
				launchHedge()
			} else if pending == 0 {
				// Both %w so the ErrTooManyFailures sentinel survives
				// whichever order the two failures arrived in.
				return nil, fmt.Errorf("store: degraded read failed: %w; %w", firstErr, r.err)
			}
		case <-timer.C:
			if !hedgeLaunched {
				hedgeLaunched = true
				pending++
				s.health.Hedge(node)
				sp.Count(trace.Hedges, 1)
				launchHedge()
			}
		}
	}
}

// sliceBlock bounds-checks and slices [off, off+length) of a reconstructed
// block. The two-step comparison is overflow-safe for adversarial offsets
// and lengths (off+length may wrap uint64).
func sliceBlock(block []byte, off, length uint64) ([]byte, error) {
	if off > uint64(len(block)) || length > uint64(len(block))-off {
		return nil, fmt.Errorf("store: reconstructed block is %d bytes, need [%d,+%d)", len(block), off, length)
	}
	return block[off : off+length : off+length], nil
}

// gatherSurvivors fans GetBlock reads for a stripe's blocks (skipping the
// block being rebuilt) out in parallel and returns as soon as any k shards
// arrive, capacity-padded and indexed by bin. Losing reads are abandoned to
// the buffered channel (cluster.Client calls cannot be cancelled mid-
// flight; every RPC is idempotent, so a late response is harmless). This is
// the one survivor-gathering path shared by block reconstruction, parity
// reconstruction and the hedged-read fan-out.
func (s *Store) gatherSurvivors(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, skip int) ([][]byte, error) {
	p := s.opts.Params
	st := meta.Stripes[stripe]
	type result struct {
		bin  int
		data []byte
		ok   bool
	}
	results := make(chan result, p.N)
	launched := 0
	for j := 0; j < p.N; j++ {
		if j == skip {
			continue
		}
		launched++
		go func(j int) {
			resp, err := s.call(ctx, sp, st.Nodes[j], &rpc.Request{
				Kind: rpc.KindGetBlock, BlockID: st.BlockIDs[j],
			})
			if err != nil || resp.Err != "" {
				if err == nil && cluster.IsChecksumErr(resp.Err) {
					sp.Count(trace.ChecksumFailures, 1)
					s.enqueueRepair(RepairItem{Object: meta.Name, Epoch: meta.Epoch, Stripe: stripe, Block: j})
				}
				results <- result{bin: j}
				return
			}
			// Survivors feed RS decode, so a silently rotted shard would
			// corrupt every block rebuilt from it: verify each full-block
			// read against the checksum recorded at write time.
			if !s.opts.SkipChecksumVerify && j < len(st.Checksums) &&
				cluster.Checksum(resp.Data) != st.Checksums[j] {
				sp.Count(trace.ChecksumFailures, 1)
				s.enqueueRepair(RepairItem{Object: meta.Name, Epoch: meta.Epoch, Stripe: stripe, Block: j})
				results <- result{bin: j}
				return
			}
			results <- result{bin: j, data: resp.Data, ok: true}
		}(j)
	}
	shards := make([][]byte, p.N)
	available := 0
	for i := 0; i < launched && available < p.K; i++ {
		r := <-results
		if r.ok {
			shards[r.bin] = padShard(r.data, st.Capacity)
			available++
		}
	}
	if available < p.K {
		return nil, fmt.Errorf("%w: only %d of %d shards available for stripe %d", ErrTooManyFailures, available, p.K, stripe)
	}
	return shards, nil
}

// reconstructBlock rebuilds one data block of a stripe from any k surviving
// blocks and returns its unpadded bytes. With the cache enabled the rebuild
// runs under singleflight: a thundering herd of readers hitting the same
// lost block triggers exactly one survivor fan-out and one RS decode, and
// every reader shares the result (which is also admitted to the cache, so
// later readers hit without any decode at all).
func (s *Store) reconstructBlock(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, bin int) ([]byte, error) {
	if !s.cacheOn() {
		return s.reconstructDataBlock(ctx, sp, meta, stripe, bin)
	}
	v, err, _ := s.cache.Do("r/"+meta.Stripes[stripe].BlockIDs[bin], func() (any, error) {
		block, err := s.reconstructDataBlock(ctx, sp, meta, stripe, bin)
		if err != nil {
			return nil, err
		}
		s.cacheFillBlock(meta, stripe, bin, block)
		return block, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// reconstructDataBlock is the actual survivor-gathering RS rebuild of a
// data block.
func (s *Store) reconstructDataBlock(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, bin int) ([]byte, error) {
	rsp := sp.Child("reconstruct")
	defer rsp.End()
	rsp.Count(trace.DegradedReads, 1)
	st := meta.Stripes[stripe]
	shards, err := s.gatherSurvivors(ctx, rsp, meta, stripe, bin)
	if err != nil {
		return nil, err
	}
	s.cache.CountDecode()
	if err := s.coder.ReconstructData(shards); err != nil {
		return nil, err
	}
	// The rebuilt shard is freshly allocated by the decode (bin was nil on
	// entry), so the pooled survivor buffers have no readers left: return
	// them to the arena before handing the block out.
	block := shards[bin][:st.DataLens[bin]]
	putSurvivors(shards, bin)
	return block, nil
}

// reconstructParity rebuilds a parity block from the stripe's survivors.
func (s *Store) reconstructParity(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, idx int) ([]byte, error) {
	rsp := sp.Child("reconstruct-parity")
	defer rsp.End()
	rsp.Count(trace.DegradedReads, 1)
	shards, err := s.gatherSurvivors(ctx, rsp, meta, stripe, idx)
	if err != nil {
		return nil, err
	}
	s.cache.CountDecode()
	if err := s.coder.Reconstruct(shards); err != nil {
		return nil, err
	}
	block := shards[idx]
	putSurvivors(shards, idx)
	return block, nil
}

// padShard copies b into a pooled capacity-sized shard buffer, zero-padding
// the tail (pooled bytes are unspecified). The copy — never aliasing b — is
// what makes returning the shard to the arena after decoding safe: the RPC
// response that produced b may be cached or aliased elsewhere, but the shard
// itself has exactly one owner.
func padShard(b []byte, size uint64) []byte {
	out := bufpool.GetLen(int(size))
	n := copy(out, b)
	clear(out[n:])
	return out
}

// putSurvivors returns a reconstruction's shard buffers to the arena,
// skipping the one at keep — the result handed to callers. Every other
// entry is dead after the decode and singly-owned: padShard copies (never
// aliases) the RPC replies, and shards the decode itself allocated have no
// other reference either.
func putSurvivors(shards [][]byte, keep int) {
	for j, sh := range shards {
		if j != keep && sh != nil {
			bufpool.Put(sh)
		}
	}
}

// RepairNode rebuilds every block an object had on the given node and
// rewrites it there — the conventional recovery procedure run after a node
// is replaced. Metadata replicas hosted by the node are restored too.
func (s *Store) RepairNode(name string, node int) (int, error) {
	return s.RepairNodeContext(context.Background(), name, node)
}

// RepairNodeContext is RepairNode under a (possibly traced) context.
func (s *Store) RepairNodeContext(ctx context.Context, name string, node int) (int, error) {
	sp := trace.FromContext(ctx).Child("store.RepairNode")
	defer sp.End()
	if s.hist != nil {
		defer func(start time.Time) {
			s.hist.Observe(opKey("RepairNode"), time.Since(start))
		}(time.Now())
	}
	meta, err := s.Meta(name)
	if err != nil {
		return 0, err
	}
	repaired := 0
	for _, mn := range s.metaReplicaNodes(name) {
		if mn != node {
			continue
		}
		// A quorum read repairs the replica from the register's majority.
		kv, err := s.metaKV(name)
		if err != nil {
			return 0, err
		}
		if _, _, err := kv.Get(metaKey(name)); err != nil {
			return 0, err
		}
		repaired++
	}
	p := s.opts.Params
	for si, st := range meta.Stripes {
		for j, blkNode := range st.Nodes {
			if blkNode != node {
				continue
			}
			// Fast path for rejoin catch-up: a block the node still holds
			// with verifying bytes needs no reconstruction.
			if j < len(st.Checksums) {
				if resp, err := s.call(ctx, sp, node, &rpc.Request{
					Kind: rpc.KindGetBlock, BlockID: st.BlockIDs[j],
				}); err == nil && resp.Err == "" && cluster.Checksum(resp.Data) == st.Checksums[j] {
					continue
				}
			}
			var block []byte
			if j < p.K {
				block, err = s.reconstructBlock(ctx, sp, meta, si, j)
			} else {
				block, err = s.reconstructParity(ctx, sp, meta, si, j)
			}
			if err != nil {
				return repaired, fmt.Errorf("store: repairing stripe %d block %d: %w", si, j, err)
			}
			if err := s.rewriteBlock(ctx, sp, meta, si, j, block); err != nil {
				return repaired, err
			}
			repaired++
		}
	}
	return repaired, nil
}

// rewriteBlock writes a rebuilt block back to its home node as a committed,
// checksummed write, verifying the rebuilt bytes against the stripe
// metadata first — a repair must never replace a rotted block with
// different garbage.
func (s *Store) rewriteBlock(ctx context.Context, sp *trace.Span, meta *ObjectMeta, stripe, bin int, block []byte) error {
	st := meta.Stripes[stripe]
	crc := cluster.Checksum(block)
	if bin < len(st.Checksums) && crc != st.Checksums[bin] {
		return fmt.Errorf("store: rebuilt block %s failed checksum verification", st.BlockIDs[bin])
	}
	_, err := s.callChecked(ctx, sp, st.Nodes[bin], &rpc.Request{
		Kind: rpc.KindPutBlock, BlockID: st.BlockIDs[bin], Data: block,
		Object: meta.Name, Epoch: meta.Epoch, Crc: crc,
	})
	if err == nil {
		// The rewrite replaced the block on its node; drop any cached
		// copy so readers go back to the (now healthy) source of truth.
		s.cache.Invalidate(blockKeyOf(meta, stripe, bin))
	}
	return err
}
