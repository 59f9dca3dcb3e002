// Workload-shape ablations: four seeded scenarios the paper's plain
// demand profiles never exercise — a concert-exit surge, a
// partition-localized hotspot, a driver-shift changeover mid-run, and
// the meeting-points variant (riders walk ≤ r to a cheaper pickup
// vertex). Each is a deterministic A/B against the unshaped workload
// with hard invariants: a scenario that fails to move the metric it
// exists to move is reported as an error, not a row.
package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/trace"
)

// prepareWorkload converts shaped trips to requests with the same
// options World.Requests uses, so shaped and unshaped runs differ only
// in the trips themselves.
func (l *Lab) prepareWorkload(trips []trace.Trip, meetingRadius float64) []*fleet.Request {
	return sim.PrepareRequests(l.World.router(), l.World.Spx, trips, sim.PrepareOptions{
		Rho:                      l.World.Scale.Rho,
		Seed:                     l.World.Scale.Seed + 7,
		MeetingPointRadiusMeters: meetingRadius,
	})
}

// runWorkloadCell builds a fresh match engine + sim engine and runs the
// requests through the peak window; shift enables the changeover.
func (l *Lab) runWorkloadCell(reqs []*fleet.Request, shift sim.ShiftChangeConfig) (*sim.Engine, *sim.Metrics, error) {
	eng, err := l.engine(l.defaults(Scenario{}), nil)
	if err != nil {
		return nil, nil, err
	}
	scheme := match.NewScheme(eng, false)
	se, err := sim.NewEngine(l.World.G, scheme, sim.Params{QueueDepth: 64, ShiftChange: shift})
	if err != nil {
		return nil, nil, err
	}
	start := PeakWindow().From.Seconds()
	se.PlaceTaxis(l.World.Scale.DefaultTaxis, l.World.Scale.Capacity, l.World.Scale.Seed, start)
	m := se.Run(reqs, start)
	return se, m, nil
}

// recordSig is the per-request outcome signature ablate-shift compares
// against the undisturbed run: who was served, from where, and the bit patterns of the
// decision times. ResponseNanos is deliberately absent — it is wall
// clock, not simulation outcome.
type recordSig struct {
	ID                      fleet.RequestID
	Served, FromQueue, Exp  bool
	Assign, Pickup, Dropoff uint64
}

// workloadSigs compresses a run into its per-request outcome signatures.
func workloadSigs(m *sim.Metrics) []recordSig {
	sigs := make([]recordSig, len(m.Records))
	for i, rec := range m.Records {
		sigs[i] = recordSig{
			ID: rec.Req.ID, Served: rec.Served, FromQueue: rec.Queued && rec.Served, Exp: rec.Expired,
			Assign:  math.Float64bits(rec.AssignAt),
			Pickup:  math.Float64bits(rec.PickupAt),
			Dropoff: math.Float64bits(rec.DropoffAt),
		}
	}
	return sigs
}

// AblationSurge A/B-tests the concert-exit surge: the same workday with
// a 3× demand spike injected into 8:15–8:45, every extra trip pouring
// out of one venue at the city center. Hard invariants: the surge
// window must actually carry ≥ 2× the base trips, the same fleet must
// strand strictly more requests than on the base day (a spike that
// costs nothing is dead weight).
func (l *Lab) AblationSurge() (*Result, error) {
	r := &Result{
		ID: "ablate-surge", Title: "Concert-exit surge vs base workday (peak, mT-Share)",
		Header: []string{"workload", "requests", "served", "served frac", "unserved"},
		Notes: []string{
			"3x demand multiplier in 8:15-8:45, origins Gaussian (sigma 300 m) around the city-center venue, destinations residential",
		},
	}
	gp := l.World.traceParams(workdaySeed)
	win := PeakWindow()
	surge := trace.SurgeParams{
		Venue:       gp.Center,
		SigmaMeters: 300,
		Start:       8*time.Hour + 15*time.Minute,
		End:         8*time.Hour + 45*time.Minute,
		Multiplier:  3,
		Seed:        l.World.Scale.Seed + 11,
	}
	dsSurge, err := trace.GenerateSurge(trace.Workday, gp, surge)
	if err != nil {
		return nil, err
	}
	baseWin := len(l.World.Workday.Between(surge.Start, surge.End))
	surgeWin := len(dsSurge.Between(surge.Start, surge.End))
	if surgeWin < 2*baseWin {
		return nil, fmt.Errorf("experiments: ablate-surge: window carries %d trips vs base %d — no surge materialized", surgeWin, baseWin)
	}

	baseReqs := l.prepareWorkload(l.World.Workday.Between(win.From, win.To), 0)
	surgeReqs := l.prepareWorkload(dsSurge.Between(win.From, win.To), 0)

	_, mBase, err := l.runWorkloadCell(baseReqs, sim.ShiftChangeConfig{})
	if err != nil {
		return nil, err
	}
	_, m, err := l.runWorkloadCell(surgeReqs, sim.ShiftChangeConfig{})
	if err != nil {
		return nil, err
	}
	if m.Requests-m.Served <= mBase.Requests-mBase.Served {
		return nil, fmt.Errorf("experiments: ablate-surge: surge stranded %d requests vs base %d — the spike cost the fleet nothing",
			m.Requests-m.Served, mBase.Requests-mBase.Served)
	}
	r.Rows = append(r.Rows,
		[]string{"base", fi(mBase.Requests), fi(mBase.Served), f3(frac(mBase.Served, mBase.Requests)), fi(mBase.Requests - mBase.Served)},
		[]string{"surge", fi(m.Requests), fi(m.Served), f3(frac(m.Served, m.Requests)), fi(m.Requests - m.Served)})
	r.Notes = append(r.Notes, fmt.Sprintf("surge window trips %d vs base %d", surgeWin, baseWin))
	return r, nil
}

// AblationHotspot A/B-tests partition-localized demand: 60%% of the
// day's origins are re-drawn inside one small disc, so the map partitions
// covering the disc absorb a disproportionate share of the offered load.
// Hard invariants: the hotspot day's maximum per-partition share of the
// run's request pickups must strictly exceed the base day's (the
// imbalance must materialize in the partitioning the index is keyed by,
// not just the trace).
func (l *Lab) AblationHotspot() (*Result, error) {
	r := &Result{
		ID: "ablate-hotspot", Title: "Partition-localized hotspot vs base workday (peak, mT-Share)",
		Header: []string{"workload", "requests", "served", "max partition share"},
	}
	gp := l.World.traceParams(workdaySeed)
	win := PeakWindow()
	hs := trace.HotspotShapeParams{
		Center:       geo.Point{Lat: gp.Center.Lat - 0.25*extentLat(l), Lng: gp.Center.Lng - 0.25*extentLng(l)},
		RadiusMeters: 0.1 * gp.ExtentMeters,
		Frac:         0.6,
		Seed:         l.World.Scale.Seed + 13,
	}
	dsHot, err := trace.GenerateHotspot(trace.Workday, gp, hs)
	if err != nil {
		return nil, err
	}
	baseReqs := l.prepareWorkload(l.World.Workday.Between(win.From, win.To), 0)
	hotReqs := l.prepareWorkload(dsHot.Between(win.From, win.To), 0)

	pt, err := l.World.Partitioning("bipartite", l.World.Scale.Kappa)
	if err != nil {
		return nil, err
	}
	maxShare := func(m *sim.Metrics) float64 {
		if len(m.Records) == 0 {
			return 0
		}
		pickups := make(map[partition.ID]int)
		most := 0
		for _, rec := range m.Records {
			p := pt.PartitionOf(rec.Req.Origin)
			pickups[p]++
			most = max(most, pickups[p])
		}
		return float64(most) / float64(len(m.Records))
	}

	_, mBase, err := l.runWorkloadCell(baseReqs, sim.ShiftChangeConfig{})
	if err != nil {
		return nil, err
	}
	_, m, err := l.runWorkloadCell(hotReqs, sim.ShiftChangeConfig{})
	if err != nil {
		return nil, err
	}
	baseShare, hotShare := maxShare(mBase), maxShare(m)
	r.Rows = append(r.Rows,
		[]string{"base", fi(mBase.Requests), fi(mBase.Served), f3(baseShare)},
		[]string{"hotspot", fi(m.Requests), fi(m.Served), f3(hotShare)})
	if hotShare <= baseShare {
		return nil, fmt.Errorf("experiments: ablate-hotspot: max partition share %.3f vs base %.3f — the disc never skewed the pickups", hotShare, baseShare)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%.0f%% of origins in a %.0f m disc; max per-partition pickup share %.3f vs base %.3f", hs.Frac*100, hs.RadiusMeters, hotShare, baseShare))
	return r, nil
}

func extentLat(l *Lab) float64 {
	min, max := l.World.G.Bounds()
	return max.Lat - min.Lat
}

func extentLng(l *Lab) float64 {
	min, max := l.World.G.Bounds()
	return max.Lng - min.Lng
}

// AblationShiftChange A/B-tests the driver-shift changeover: ten
// minutes into the peak hour a seeded quarter of the fleet stops taking
// new work and retires as soon as it stands empty; equally many
// replacements come on shift five minutes later. Hard invariants: the
// fleet ends at taxis + cohort, exactly the cohort retired, the supply
// dip must cost something relative to the undisturbed run.
func (l *Lab) AblationShiftChange() (*Result, error) {
	r := &Result{
		ID: "ablate-shift", Title: "Driver-shift changeover mid-run vs undisturbed fleet (peak, mT-Share)",
		Header: []string{"workload", "served", "unserved", "fleet", "retired"},
	}
	win := PeakWindow()
	start := win.From.Seconds()
	reqs := l.World.Requests(win, l.World.Scale.Rho, 0)
	sc := sim.ShiftChangeConfig{
		AtSeconds:  start + 600,
		Fraction:   0.25,
		LagSeconds: 300,
		Seed:       l.World.Scale.Seed + 17,
	}
	cohort := int(math.Round(sc.Fraction * float64(l.World.Scale.DefaultTaxis)))

	_, mBase, err := l.runWorkloadCell(reqs, sim.ShiftChangeConfig{})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, []string{"no shift", fi(mBase.Served), fi(mBase.Requests - mBase.Served),
		fi(l.World.Scale.DefaultTaxis), fi(0)})

	se, m, err := l.runWorkloadCell(reqs, sc)
	if err != nil {
		return nil, err
	}
	retired := 0
	for _, tx := range se.Taxis() {
		if tx.Capacity == 0 {
			retired++
			if !tx.Empty() {
				return nil, fmt.Errorf("experiments: ablate-shift: taxi %d retired while carrying passengers", tx.ID)
			}
		}
	}
	if n := len(se.Taxis()); n != l.World.Scale.DefaultTaxis+cohort {
		return nil, fmt.Errorf("experiments: ablate-shift: fleet ended at %d taxis, want %d + %d replacements",
			n, l.World.Scale.DefaultTaxis, cohort)
	}
	if retired != cohort {
		return nil, fmt.Errorf("experiments: ablate-shift: %d taxis retired, want the whole cohort of %d", retired, cohort)
	}
	if m.Served == mBase.Served && slices.Equal(workloadSigs(m), workloadSigs(mBase)) {
		return nil, fmt.Errorf("experiments: ablate-shift: changeover run is byte-identical to the undisturbed run — the scenario is dead weight")
	}
	r.Rows = append(r.Rows, []string{"shift", fi(m.Served), fi(m.Requests - m.Served),
		fi(l.World.Scale.DefaultTaxis + cohort), fi(retired)})
	r.Notes = append(r.Notes,
		fmt.Sprintf("%.0f%% of the fleet off-shift at +10 min, replacements at +15 min", sc.Fraction*100))
	return r, nil
}

// AblationMeetingPoints sweeps the walking radius r of the
// meeting-points variant over {0, 150, 300} m: riders walk up to r to
// the pickup vertex with the cheapest direct drive, trading a delayed
// release for insertion slack. Hard invariants: per surviving request
// the direct drive never lengthens vs r=0; at r=300 some requests must
// actually move and the total direct distance must measurably shrink
// (the served-rate and detour columns are the payoff).
func (l *Lab) AblationMeetingPoints() (*Result, error) {
	r := &Result{
		ID: "ablate-meeting-points", Title: "Meeting points: walk radius r vs door-snapped pickups (peak, mT-Share)",
		Header: []string{"radius m", "requests", "moved", "total direct km", "served", "served frac"},
		Notes: []string{
			"walk at 1.4 m/s delays the release; the deadline keeps Eq. 9's span, so a shorter drive converts into insertion slack",
		},
	}
	win := PeakWindow()
	trips := l.World.Workday.Between(win.From, win.To)

	base := l.prepareWorkload(trips, 0)
	baseByID := make(map[fleet.RequestID]*fleet.Request, len(base))
	var baseDirect float64
	for _, q := range base {
		baseByID[q.ID] = q
		baseDirect += q.DirectMeters
	}
	_, mBase, err := l.runWorkloadCell(base, sim.ShiftChangeConfig{})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, []string{fi(0), fi(mBase.Requests), fi(0),
		f1(baseDirect / 1000), fi(mBase.Served), f3(frac(mBase.Served, mBase.Requests))})

	for _, radius := range []float64{150, 300} {
		reqs := l.prepareWorkload(trips, radius)
		moved := 0
		var direct float64
		for _, q := range reqs {
			direct += q.DirectMeters
			b, ok := baseByID[q.ID]
			if !ok {
				continue
			}
			if q.DirectMeters > b.DirectMeters+1e-9 {
				return nil, fmt.Errorf("experiments: ablate-meeting-points: r=%g lengthened request %d's direct drive (%.1f -> %.1f m)",
					radius, q.ID, b.DirectMeters, q.DirectMeters)
			}
			if q.Origin != b.Origin {
				moved++
			}
		}
		_, m, err := l.runWorkloadCell(reqs, sim.ShiftChangeConfig{})
		if err != nil {
			return nil, err
		}
		if radius == 300 {
			if moved == 0 {
				return nil, fmt.Errorf("experiments: ablate-meeting-points: no request moved at r=300 — the variant is dead weight on this world")
			}
			if direct >= baseDirect {
				return nil, fmt.Errorf("experiments: ablate-meeting-points: total direct %.1f km at r=300 vs %.1f km at r=0 — no measurable detour delta",
					direct/1000, baseDirect/1000)
			}
			r.Notes = append(r.Notes, fmt.Sprintf("r=300: %d/%d requests moved, total direct %.1f km vs %.1f km at r=0 (served %d vs %d)",
				moved, len(reqs), direct/1000, baseDirect/1000, m.Served, mBase.Served))
		}
		r.Rows = append(r.Rows, []string{f1(radius), fi(m.Requests), fi(moved),
			f1(direct / 1000), fi(m.Served), f3(frac(m.Served, m.Requests))})
	}
	return r, nil
}

// frac guards the served-rate division on an empty window.
func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
