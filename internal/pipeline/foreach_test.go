package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachVisitsEveryIndexOnce: every index in [0, n) reaches fn
// exactly once, at every worker width including the degenerate ones.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 17} {
		for _, workers := range []int{0, 1, 2, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				visits := make([]atomic.Int32, n)
				ForEach(context.Background(), n, workers, func(cc *Compiler, i int) {
					if cc == nil {
						t.Error("nil Compiler")
					}
					visits[i].Add(1)
				})
				for i := range visits {
					if got := visits[i].Load(); got != 1 {
						t.Errorf("index %d visited %d times, want 1", i, got)
					}
				}
			})
		}
	}
}

// TestForEachCompilerSingleOwner: no Compiler is in use by two calls at
// the same time, and there is at most one Compiler per worker.
func TestForEachCompilerSingleOwner(t *testing.T) {
	const n, workers = 64, 4
	var mu sync.Mutex
	inUse := make(map[*Compiler]bool)
	ForEach(context.Background(), n, workers, func(cc *Compiler, i int) {
		mu.Lock()
		if inUse[cc] {
			t.Errorf("index %d: Compiler %p already in use by another call", i, cc)
		}
		inUse[cc] = true
		mu.Unlock()
		// Hold the Compiler long enough for the other workers to
		// overlap, and touch its scratch so -race sees any sharing.
		cc.SimBatch()
		time.Sleep(100 * time.Microsecond)
		mu.Lock()
		inUse[cc] = false
		mu.Unlock()
	})
	if len(inUse) > workers {
		t.Errorf("%d Compilers for %d workers", len(inUse), workers)
	}
}

// TestForEachStopsOnCancel: once ctx is cancelled no new index is
// handed out. A call may already be past its worker's context check
// when the cancel lands, so each other worker can start at most one
// more call; the canceller's own worker starts none.
func TestForEachStopsOnCancel(t *testing.T) {
	const n, cancelAt = 1000, 5
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var visited, afterCancel atomic.Int32
			ForEach(ctx, n, workers, func(cc *Compiler, i int) {
				visited.Add(1)
				if ctx.Err() != nil {
					afterCancel.Add(1)
				}
				if i == cancelAt {
					cancel()
				}
			})
			if got := afterCancel.Load(); got > int32(workers-1) {
				t.Errorf("%d calls started after cancel, want at most %d", got, workers-1)
			}
			if got := visited.Load(); workers == 1 && got != cancelAt+1 {
				t.Errorf("%d indexes visited on one worker, want %d", got, cancelAt+1)
			}
		})
	}
	// A context that is done before the call hands out nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ForEach(ctx, 10, 3, func(*Compiler, int) { t.Error("index handed out on a done context") })
}
