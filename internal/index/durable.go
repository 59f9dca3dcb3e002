package index

import (
	"cmp"
	"slices"

	"repro/internal/partition"
)

// Row is one serialized partition-index entry for a taxi: the partition
// and the exact arrival time recorded there. ArrivalSeconds is carried
// verbatim (not recomputed) because it was derived from the route at
// update time and is compared with ULP sensitivity by candidate search.
type Row struct {
	Partition      partition.ID `json:"p"`
	ArrivalSeconds float64      `json:"t"`
}

// RowsOf returns a copy of the taxi's index rows, ascending by partition,
// for snapshot capture. The result is empty for an unindexed taxi.
func (ix *PartitionIndex) RowsOf(taxiID int64) []Row {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append(make([]Row, 0, len(ix.byTaxi[taxiID])), ix.byTaxi[taxiID]...)
}

// RestoreRows reinstalls a taxi's rows verbatim from a snapshot. Unlike
// Update it does not touch the updates counter — the counter's value is
// restored separately with the rest of the deterministic counter set —
// but it does refresh the size gauges.
func (ix *PartitionIndex) RestoreRows(taxiID int64, rows []Row) {
	rows = append([]Row(nil), rows...)
	slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.Partition, b.Partition) })
	ix.mu.Lock()
	ix.installLocked(taxiID, rows)
	entries, taxis := ix.entries, len(ix.byTaxi)
	ix.mu.Unlock()
	if ix.entriesGauge != nil {
		ix.entriesGauge.Set(float64(entries))
		ix.taxisGauge.Set(float64(taxis))
	}
}
