package store

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fusionstore/fusion/internal/sched"
)

// TestCancelledContextFailsOps: a context dead before the call must fail
// every public ctx-aware entry point with the context's own error, never a
// transport or availability error.
func TestCancelledContextFailsOps(t *testing.T) {
	data, _, _ := makeObject(t, 2, 200, 41)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.GetContext(ctx, "obj", 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetContext = %v, want context.Canceled", err)
	}
	if _, err := s.QueryContext(ctx, "SELECT id FROM obj WHERE qty < 10"); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext = %v, want context.Canceled", err)
	}
	if err := s.DeleteContext(ctx, "obj"); !errors.Is(err, context.Canceled) {
		t.Fatalf("DeleteContext = %v, want context.Canceled", err)
	}
	// The object must have survived the cancelled delete.
	if _, err := s.Get("obj", 0, 0); err != nil {
		t.Fatalf("object damaged by cancelled delete: %v", err)
	}
}

// TestQueryDeadlineNoGoroutineLeak: queries abandoned at their deadline must
// not strand fan-out goroutines. The store's worker pools are per-query, so
// a leak here shows up as a monotonically growing goroutine count.
func TestQueryDeadlineNoGoroutineLeak(t *testing.T) {
	data, _, _ := makeObject(t, 4, 400, 42)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// Warm once so lazily-started machinery doesn't count as a leak.
	if _, err := s.Query("SELECT COUNT(*) FROM obj"); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for i := 0; i < 25; i++ {
		// A budget short enough that many runs die mid-fan-out, long enough
		// that some complete: both paths must clean up.
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(50+i*100)*time.Microsecond)
		_, err := s.QueryContext(ctx, "SELECT id FROM obj WHERE qty < 10")
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("query %d: unclassified error under deadline: %v", i, err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pastDeadlineCtx is a context whose deadline has passed but whose timer
// has not fired yet, so Err is still nil. A real deadline context is in this
// state for as long as the runtime takes to run its timer.
type pastDeadlineCtx struct{ context.Context }

func (pastDeadlineCtx) Deadline() (time.Time, bool) {
	return time.Now().Add(-time.Millisecond), true
}

// TestReadPastDeadlineIsClassified: a read whose calls fail because the
// deadline has passed must surface context.DeadlineExceeded, not fall into
// a reconstruction whose calls fail the same way and report a misleading
// too-many-failures.
func TestReadPastDeadlineIsClassified(t *testing.T) {
	data, _, _ := makeObject(t, 2, 200, 44)
	s, _ := newSimStore(t, fusionTestOptions())
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	ctx := pastDeadlineCtx{context.Background()}
	if _, err := s.GetContext(ctx, "obj", 0, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetContext = %v, want context.DeadlineExceeded", err)
	}
	if _, err := s.QueryContext(ctx, "SELECT id FROM obj WHERE qty < 10"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryContext = %v, want context.DeadlineExceeded", err)
	}
}

// TestStoreShedsTypedErrorWhenQueueFull: with the only slot held and the
// tenant's queue at depth, the store's public API must fail with the typed,
// classifiable ErrOverloaded — the contract clients and the load harness
// retry against.
func TestStoreShedsTypedErrorWhenQueueFull(t *testing.T) {
	data, _, _ := makeObject(t, 2, 200, 43)
	opts := fusionTestOptions()
	opts.Sched = sched.New(sched.Config{Slots: 1, ScanSlots: 1, PutSlots: 1, QueueDepth: 1})
	s, _ := newSimStore(t, opts)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}

	// Hold the only slot, then park one waiter to fill the depth-1 queue.
	release, _, err := s.sched.Acquire(context.Background(), "hog", sched.ClassPoint)
	if err != nil {
		t.Fatal(err)
	}
	waiterDone := make(chan error, 1)
	go func() {
		_, err := s.GetContext(context.Background(), "obj", 0, 0)
		waiterDone <- err
	}()
	for {
		st := s.SchedStats()
		queued := 0
		for _, tn := range st.Tenants {
			queued += tn.Queued
		}
		if queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	_, err = s.GetContext(context.Background(), "obj", 0, 0)
	if !errors.Is(err, sched.ErrOverloaded) {
		t.Fatalf("full queue must shed with ErrOverloaded; got %v", err)
	}
	var ov *sched.Overloaded
	if !errors.As(err, &ov) {
		t.Fatalf("shed error %v must carry *sched.Overloaded", err)
	}
	if ov.Reason != "queue full" {
		t.Fatalf("Overloaded.Reason = %q, want \"queue full\"", ov.Reason)
	}

	release()
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued op failed after the slot freed: %v", err)
	}
	if st := s.SchedStats(); st.Running != 0 {
		t.Fatalf("slots leaked: %d still running after drain", st.Running)
	}
}

// TestStorePointReadsSurviveAggressor: a scan-heavy aggressor tenant
// saturating the scan slots must not starve a weighted point-read tenant —
// the store-level fairness property the scheduler exists for. Run with
// -race in CI.
func TestStorePointReadsSurviveAggressor(t *testing.T) {
	data, _, _ := makeObject(t, 3, 400, 44)
	opts := fusionTestOptions()
	opts.Sched = sched.New(sched.Config{
		Slots: 4, ScanSlots: 2, PutSlots: 2, QueueDepth: 32,
		Weights: map[string]int{"point": 8, "aggressor": 1},
	})
	s, _ := newSimStore(t, opts)
	if _, err := s.Put("obj", data); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var aggressorOps atomic.Int64
	for i := 0; i < 6; i++ {
		go func() {
			ctx := sched.WithTenant(context.Background(), "aggressor")
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := s.QueryContext(ctx, "SELECT id FROM obj WHERE qty < 10")
				if err == nil {
					aggressorOps.Add(1)
				}
			}
		}()
	}

	// Wait until the aggressor is actually applying pressure.
	for aggressorOps.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx := sched.WithTenant(context.Background(), "point")
	const pointOps = 50
	start := time.Now()
	for i := 0; i < pointOps; i++ {
		if _, err := s.GetContext(ctx, "obj", 0, 64); err != nil {
			close(stop)
			t.Fatalf("point read %d failed under aggressor: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	close(stop)

	// Starvation would push sequential point reads toward the test timeout;
	// fairness keeps each read bounded by a few queue turns.
	if avg := elapsed / pointOps; avg > 200*time.Millisecond {
		t.Fatalf("point reads averaged %v each under aggressor — starved", avg)
	}
	var pointStats, aggStats *sched.TenantStats
	st := s.SchedStats()
	for i := range st.Tenants {
		switch st.Tenants[i].Tenant {
		case "point":
			pointStats = &st.Tenants[i]
		case "aggressor":
			aggStats = &st.Tenants[i]
		}
	}
	if pointStats == nil || pointStats.Admitted < pointOps {
		t.Fatalf("point tenant admissions not accounted: %+v", pointStats)
	}
	if pointStats.Shed != 0 {
		t.Fatalf("point tenant was shed %d times despite its weight", pointStats.Shed)
	}
	if aggStats == nil || aggStats.Admitted == 0 {
		t.Fatal("aggressor made no progress — fairness must not invert into starvation")
	}
}
