package match

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/partition"
)

// Repartition swaps the engine onto a new map partitioning — the paper's
// periodic re-execution of bipartite map partitioning when enough new
// trip data has accumulated (§IV-B1: "the bipartite map partitioning
// could be periodically executed with a relatively long interval...
// once the map partitions are changed, the corresponding landmarks and
// the landmark graph should also be accordingly updated").
//
// The partition taxi index is rebuilt from every registered taxi's
// current plan, the routing caches and the candidate search's disc memo
// tied to the old partition geometry are dropped, and the mobility
// clusters (which are partition-independent) are kept. The new
// partitioning must cover the same road graph.
func (e *Engine) Repartition(pt *partition.Partitioning, nowSeconds float64) error {
	if pt.Graph() != e.g {
		return fmt.Errorf("match: new partitioning covers a different graph")
	}
	e.mu.Lock()
	taxis := make([]int64, 0, len(e.taxis))
	for id := range e.taxis {
		taxis = append(taxis, id)
	}
	e.mu.Unlock()

	// Swap geometry-dependent state under the cache locks.
	pt.IndexCells(e.spx)
	e.filterMu.Lock()
	e.pt = pt
	e.disc.Store(newDiscMemo(pt))
	e.filterCache = make(map[uint64][]partition.ID)
	e.filterMu.Unlock()

	e.pindex = index.NewPartitionIndex(pt, e.cfg.HorizonSeconds)

	// Reindex the fleet onto the new partitions.
	for _, id := range taxis {
		if t, ok := e.Taxi(id); ok {
			e.ReindexTaxi(t, nowSeconds)
		}
	}
	return nil
}
