package trace

import (
	"math"
	"sort"
	"time"

	"repro/internal/geo"
)

// CostFunc estimates the travel time of a trip. The harness plugs in a
// road-network router; the default straight-line estimator multiplies the
// crow-flies distance by a detour factor and divides by the fleet speed.
type CostFunc func(origin, dest geo.Point) time.Duration

// StraightLineCost returns a CostFunc that scales the straight-line
// distance by detourFactor (road networks are typically 1.2-1.4x longer
// than the crow flies) at the given speed in km/h.
func StraightLineCost(detourFactor, speedKmh float64) CostFunc {
	mps := speedKmh * 1000 / 3600
	return func(o, d geo.Point) time.Duration {
		meters := geo.Equirect(o, d) * detourFactor
		return time.Duration(meters / mps * float64(time.Second))
	}
}

// UtilizationByHour reproduces Fig. 5(a): the fraction of fleet capacity
// busy serving trips in each hour, assuming fleetSize taxis each available
// the full hour. Busy time per trip is its estimated travel time plus a
// fixed pickup overhead.
func (d *Dataset) UtilizationByHour(fleetSize int, cost CostFunc, pickupOverhead time.Duration) [24]float64 {
	var busy [24]time.Duration
	for _, t := range d.Trips {
		h := t.Hour()
		if h < 0 || h > 23 {
			continue
		}
		busy[h] += cost(t.Origin, t.Dest) + pickupOverhead
	}
	var util [24]float64
	capacity := time.Duration(fleetSize) * time.Hour
	if capacity <= 0 {
		return util
	}
	for h := range util {
		util[h] = math.Min(1, float64(busy[h])/float64(capacity))
	}
	return util
}

// TravelTimeDistribution reproduces Fig. 5(b): it returns the sorted trip
// travel times, from which Percentile can answer e.g. the paper's reported
// 50th (15 min) and 90th (30 min) percentiles.
func (d *Dataset) TravelTimeDistribution(cost CostFunc) []time.Duration {
	times := make([]time.Duration, 0, len(d.Trips))
	for _, t := range d.Trips {
		times = append(times, cost(t.Origin, t.Dest))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times
}

// Percentile returns the p-th percentile (0-100) of sorted durations using
// nearest-rank. It returns 0 for an empty slice.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}
