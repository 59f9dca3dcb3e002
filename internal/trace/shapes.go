// Workload shapes the paper never tested: deterministic overlays on the
// synthetic trace generator that stress dispatch in ways a plain
// demand-profile day cannot — a concert-exit surge (a venue dumps a
// crowd into a half-hour window) and a partition-localized hotspot (a
// large share of all origins lands inside one small disc, so a few map
// partitions absorb most of the offered load).
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/geo"
)

// SurgeParams overlays a concert-exit demand spike on a generated day:
// inside [Start, End) extra trips are injected so the window's trip
// count is at least Multiplier times the base day's count there, every
// extra trip originating within a Gaussian scatter around Venue (the
// crowd leaving one gate) and heading for residential demand centers.
type SurgeParams struct {
	// Venue is where the crowd pours out.
	Venue geo.Point
	// SigmaMeters scatters surge origins around the venue (default:
	// 300 m).
	SigmaMeters float64
	// Start and End bound the surge window within the day.
	Start, End time.Duration
	// Multiplier is the demanded ratio of surge-window trips to the base
	// day's trips in the same window; must be > 1.
	Multiplier float64
	// Seed makes the overlay deterministic, independently of the base
	// day's seed.
	Seed int64
}

// Validate reports whether the parameters are usable.
func (p SurgeParams) Validate() error {
	switch {
	case p.End <= p.Start || p.Start < 0 || p.End > 24*time.Hour:
		return fmt.Errorf("trace: surge window [%v, %v) is not a sub-interval of the day", p.Start, p.End)
	case p.Multiplier <= 1:
		return fmt.Errorf("trace: surge Multiplier must exceed 1, got %v", p.Multiplier)
	}
	return nil
}

// GenerateSurge produces a full-day dataset equal to Generate(day, base)
// plus the surge overlay. The base day is untouched outside the window,
// so a (base, surge) pair differs only where the spike is — exactly the
// A/B shape the surge ablation compares. Trips are re-IDed in release
// order like Generate's.
func GenerateSurge(day DayKind, base GenParams, surge SurgeParams) (*Dataset, error) {
	if err := surge.Validate(); err != nil {
		return nil, err
	}
	ds, err := Generate(day, base)
	if err != nil {
		return nil, err
	}
	if base.Hotspots == nil {
		base.Hotspots = DefaultHotspots(base.Center, base.ExtentMeters, base.Seed)
	}
	sigma := surge.SigmaMeters
	if sigma <= 0 {
		sigma = 300
	}
	baseInWin := len(ds.Between(surge.Start, surge.End))
	extra := int(math.Ceil((surge.Multiplier - 1) * float64(baseInWin)))
	if extra == 0 {
		extra = 1 // an empty base window still gets a spike
	}
	rng := rand.New(rand.NewSource(surge.Seed))
	g := &generator{params: base, rng: rng, minTrip: math.Max(base.MinTripMeters, 1)}
	g.indexHotspots()
	mLat := geo.EarthRadiusMeters * math.Pi / 180
	mLng := mLat * math.Cos(surge.Venue.Lat*math.Pi/180)
	span := surge.End - surge.Start
	for i := 0; i < extra; i++ {
		o := g.clamp(geo.Point{
			Lat: surge.Venue.Lat + rng.NormFloat64()*sigma/mLat,
			Lng: surge.Venue.Lng + rng.NormFloat64()*sigma/mLng,
		})
		// The crowd disperses home: destinations follow the residential
		// hotspot field.
		d := g.samplePoint(Residential)
		ds.Trips = append(ds.Trips, Trip{
			ReleaseAt: surge.Start + time.Duration(rng.Float64()*float64(span)),
			Origin:    o,
			Dest:      d,
		})
	}
	sort.SliceStable(ds.Trips, func(i, j int) bool { return ds.Trips[i].ReleaseAt < ds.Trips[j].ReleaseAt })
	for i := range ds.Trips {
		ds.Trips[i].ID = int64(i)
	}
	return ds, nil
}

// HotspotShapeParams concentrates demand in one small disc: a seeded
// fraction of the day's trips have their origin re-drawn uniformly
// inside the disc while destinations stay city-wide, so taxis drain out
// of the hotspot and the partitions covering it absorb a disproportionate
// share of the offered load.
type HotspotShapeParams struct {
	Center       geo.Point
	RadiusMeters float64
	// Frac of all trips get their origin moved into the disc; [0, 1].
	Frac float64
	// Seed picks which trips move and where they land.
	Seed int64
}

// Validate reports whether the parameters are usable.
func (p HotspotShapeParams) Validate() error {
	switch {
	case p.RadiusMeters <= 0:
		return fmt.Errorf("trace: hotspot RadiusMeters must be positive, got %v", p.RadiusMeters)
	case p.Frac < 0 || p.Frac > 1:
		return fmt.Errorf("trace: hotspot Frac must be in [0,1], got %v", p.Frac)
	}
	return nil
}

// GenerateHotspot produces Generate(day, base) with the hotspot overlay
// applied: exactly round(Frac·N) trips — chosen by a seeded permutation
// — originate inside the disc (uniform by area; points are not clamped,
// so the in-disc invariant is exact by construction). Release times,
// destinations, and the other trips are untouched.
func GenerateHotspot(day DayKind, base GenParams, h HotspotShapeParams) (*Dataset, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	ds, err := Generate(day, base)
	if err != nil {
		return nil, err
	}
	n := len(ds.Trips)
	k := int(math.Round(h.Frac * float64(n)))
	rng := rand.New(rand.NewSource(h.Seed))
	mLat := geo.EarthRadiusMeters * math.Pi / 180
	mLng := mLat * math.Cos(h.Center.Lat*math.Pi/180)
	for _, i := range rng.Perm(n)[:k] {
		// Uniform by area: radius ∝ sqrt(U).
		r := h.RadiusMeters * math.Sqrt(rng.Float64())
		ang := rng.Float64() * 2 * math.Pi
		ds.Trips[i].Origin = geo.Point{
			Lat: h.Center.Lat + r*math.Sin(ang)/mLat,
			Lng: h.Center.Lng + r*math.Cos(ang)/mLng,
		}
	}
	return ds, nil
}
