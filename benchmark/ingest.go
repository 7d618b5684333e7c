package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/fusionstore/fusion/internal/datasets"
	"github.com/fusionstore/fusion/internal/tpch"
)

// ingestNamesPerClient is how many object names each client rotates over.
// Every timed Put overwrites one, so each Put also garbage-collects the
// previous epoch; with an odd count a name alternates between shapes.
const ingestNamesPerClient = 3

// ingestBench is the ingest workload: a closed loop of streaming Puts,
// alternating lineitem-shaped and taxi-shaped objects.
type ingestBench struct {
	sz      sizes
	seed    int64
	clients int

	shapes [][]byte  // 0: lineitem-shaped, 1: taxi-shaped
	order  [][]uint8 // per client, the shape of its k-th Put

	mu    sync.Mutex
	final map[string]int // name -> shape of its last acknowledged Put
}

func ingestName(client, k int) string {
	return fmt.Sprintf("ingest-%d-%d", client, k%ingestNamesPerClient)
}

// ingestOrderLen bounds each client's precomputed shape sequence; a client
// wraps around it, far beyond any window's Put count.
const ingestOrderLen = 1 << 12

// corpus generates the two shapes from their configs' fixed seeds, and
// from the run seed each client's shape order: every consecutive pair of
// Puts holds one object of each shape in seeded order, so the mix stays
// even however many Puts a window completes.
func (b *ingestBench) corpus() error {
	liData, err := tpch.Generate(b.sz.ingestLineitem)
	if err != nil {
		return fmt.Errorf("ingest corpus: %w", err)
	}
	txData, err := datasets.Taxi(b.sz.ingestTaxi)
	if err != nil {
		return fmt.Errorf("ingest corpus: %w", err)
	}
	b.shapes = [][]byte{liData, txData}
	rng := rand.New(rand.NewSource(b.seed))
	b.order = make([][]uint8, b.clients)
	for c := range b.order {
		b.order[c] = make([]uint8, ingestOrderLen)
		for k := 0; k < ingestOrderLen; k += 2 {
			first := uint8(rng.Intn(2))
			b.order[c][k], b.order[c][k+1] = first, 1-first
		}
	}
	return nil
}

func (b *ingestBench) reference() error { return nil }

// load writes every name once so the timed Puts are all overwrites, then
// warms up with one more Put per client.
func (b *ingestBench) load(d *deployment) error {
	b.final = map[string]int{}
	for c := 0; c < b.clients; c++ {
		for k := 0; k <= ingestNamesPerClient; k++ {
			if err := b.put(d, newRecorder(nil), c, k); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	return nil
}

func (b *ingestBench) run(d *deployment, rec *recorder, until time.Time, clients int) {
	closedLoop(clients, until, func(client, i int) {
		// Continue each client's rotation after the preload's Puts.
		_ = b.put(d, rec, client, ingestNamesPerClient+1+i)
	})
}

// put issues client c's k-th Put to name k%ingestNamesPerClient.
func (b *ingestBench) put(d *deployment, rec *recorder, c, k int) error {
	name, shape := ingestName(c, k), int(b.order[c][k%ingestOrderLen])
	ctx, sp := rec.start()
	start := time.Now()
	st, err := d.target.Put(ctx, name, b.shapes[shape])
	lat := time.Since(start)
	if err == nil {
		rec.addPut(st)
		b.mu.Lock()
		b.final[name] = shape
		b.mu.Unlock()
	}
	rec.done(sp, []string{"put_lineitem", "put_taxi"}[shape], lat, err, "")
	return err
}

// verify reads every name's final version back and compares it byte for
// byte with the last acknowledged Put.
func (b *ingestBench) verify(d *deployment, rec *recorder) {
	for name, shape := range b.final {
		got, err := d.target.Get(context.Background(), name, 0, 0)
		if err != nil || !bytes.Equal(got, b.shapes[shape]) {
			rec.mismatch(fmt.Sprintf("readback %s: %d bytes, err %v", name, len(got), err))
		}
	}
}

// liveBytes is the size of the objects the store must keep.
func (b *ingestBench) liveBytes() uint64 {
	var n uint64
	for _, shape := range b.final {
		n += uint64(len(b.shapes[shape]))
	}
	return n
}

func (b *ingestBench) facts() map[string]any {
	return map[string]any{
		"object_bytes": map[string]int{"lineitem_shaped": len(b.shapes[0]), "taxi_shaped": len(b.shapes[1])},
		"names":        b.clients * ingestNamesPerClient,
	}
}
