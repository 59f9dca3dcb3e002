package roadnet

import (
	"sync"
	"sync/atomic"
)

// ParallelDo calls fn(worker, i) for every i in [0, n) over min(workers, n)
// goroutines pulling indexes from an atomic counter, and returns when every
// call is done. worker is in [0, workers), so a caller can hand each worker
// its own scratch. This is the repo's deterministic fan-out: every index is
// computed exactly once and fn writes only slot i, so results do not depend
// on the schedule. Callers size the pool from runtime.GOMAXPROCS(0).
func ParallelDo(n, workers int, fn func(worker, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
