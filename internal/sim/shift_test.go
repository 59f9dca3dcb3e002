package sim

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// shiftSigs compresses a run's records into comparable outcome
// signatures (wall-clock fields excluded).
type shiftSig struct {
	ID                      fleet.RequestID
	Served, FromQueue, Exp  bool
	Taxi                    int64
	Assign, Pickup, Dropoff uint64
}

func shiftSigsOf(m *Metrics) []shiftSig {
	out := make([]shiftSig, len(m.Records))
	for i, rec := range m.Records {
		out[i] = shiftSig{
			ID: rec.Req.ID, Served: rec.Served, FromQueue: rec.Queued && rec.Served, Exp: rec.Expired,
			Taxi:    rec.Taxi,
			Assign:  math.Float64bits(rec.AssignAt),
			Pickup:  math.Float64bits(rec.PickupAt),
			Dropoff: math.Float64bits(rec.DropoffAt),
		}
	}
	return out
}

// runShift runs one peak hour with the changeover.
func runShift(t *testing.T, w *world, reqs []*fleet.Request, taxis int, sc ShiftChangeConfig) (*Engine, *Metrics) {
	t.Helper()
	eng, err := NewEngine(w.g, w.mtShare(t, false), Params{ShiftChange: sc})
	if err != nil {
		t.Fatal(err)
	}
	start := 8 * 3600.0
	eng.PlaceTaxis(taxis, 3, 1, start)
	return eng, eng.Run(reqs, start)
}

// The changeover's structural invariants: the cohort has the configured
// size, every cohort taxi ends empty and retired (capacity zero), the
// replacement cohort is exactly as large with fresh IDs and the original
// capacities, and the changeover actually cost something relative to the
// undisturbed fleet (vacuousness guard).
func TestShiftChangeoverInvariants(t *testing.T) {
	w := newWorld(t)
	reqs := w.peakRequests(t, 0)
	const taxis = 16
	sc := ShiftChangeConfig{AtSeconds: 8*3600 + 600, Fraction: 0.25, LagSeconds: 300, Seed: 9}
	wantCohort := int(math.Round(sc.Fraction * taxis))

	engBase, base := runShift(t, w, reqs, taxis, ShiftChangeConfig{})
	if n := len(engBase.Taxis()); n != taxis {
		t.Fatalf("baseline fleet grew to %d taxis", n)
	}
	eng, m := runShift(t, w, reqs, taxis, sc)

	if n := len(eng.Taxis()); n != taxis+wantCohort {
		t.Fatalf("fleet has %d taxis after changeover, want %d + %d replacements", n, taxis, wantCohort)
	}
	retired := 0
	for _, tx := range eng.Taxis() {
		if tx.Capacity == 0 {
			retired++
			if !tx.Empty() {
				t.Fatalf("taxi %d retired while still carrying passengers", tx.ID)
			}
		}
		if tx.ID > taxis && tx.Capacity != 3 {
			t.Fatalf("replacement taxi %d has capacity %d, want the retiree's 3", tx.ID, tx.Capacity)
		}
	}
	if retired != wantCohort {
		t.Fatalf("%d taxis retired, want the whole cohort of %d (the drain phase empties everyone)", retired, wantCohort)
	}
	// A supply dip must be visible somewhere: either fewer served or a
	// different assignment schedule than the undisturbed run.
	if m.Served == base.Served {
		a, b := shiftSigsOf(m), shiftSigsOf(base)
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i] == b[i]
		}
		if same {
			t.Fatal("shift changeover produced a byte-identical run — the scenario is dead weight")
		}
	}
}

// Off-shift means off: once the sole taxi retires, a request released
// into the gap (before the lagged replacement exists) must go unserved,
// and a request released after the replacement arrives must be served by
// the replacement, never by the retiree.
func TestShiftRetireeTakesNoNewWork(t *testing.T) {
	w := newWorld(t)
	start := 8 * 3600.0
	mk := func(id int64, releaseOffset, rho float64) *fleet.Request {
		// A comfortably routable cross-town pair, re-snapped per request.
		o, _ := w.spx.NearestVertex(w.ds.Trips[10].Origin)
		d, _ := w.spx.NearestVertex(w.ds.Trips[10].Dest)
		direct := w.rt.Cost(o, d)
		if math.IsInf(direct, 1) || o == d {
			t.Fatal("test trip unroutable")
		}
		release := time.Duration((start + releaseOffset) * float64(time.Second))
		return &fleet.Request{
			ID: fleet.RequestID(id), ReleaseAt: release, Origin: o, Dest: d,
			Deadline:     release + time.Duration(direct/(15.0*1000/3600)*rho*float64(time.Second)),
			DirectMeters: direct, Passengers: 1,
			OriginPt: w.g.Point(o), DestPt: w.g.Point(d),
		}
	}
	// Gap request lands after the shift moment but long before the
	// replacement; late request lands after the replacement is on shift.
	// The gap request's window stays tight (it must die in the gap); the
	// late one is generous so the replacement can reach it from wherever
	// it spawned.
	sc := ShiftChangeConfig{AtSeconds: start + 60, Fraction: 1, LagSeconds: 3600, Seed: 3}
	reqs := []*fleet.Request{mk(1, 900, 1.3), mk(2, 5000, 8)}
	eng, m := runShift(t, w, reqs, 1, sc)

	recGap := m.Records[0]
	if byID := func(id fleet.RequestID) *service.Request {
		for _, r := range m.Records {
			if r.Req.ID == id {
				return r
			}
		}
		t.Fatalf("no record for request %d", id)
		return nil
	}; true {
		recGap = byID(1)
		if recGap.Served {
			t.Fatalf("request in the supply gap was served by taxi %d — the retiree took new work", recGap.Taxi)
		}
		recLate := byID(2)
		if !recLate.Served {
			t.Fatal("request after the replacement arrived went unserved")
		}
		if recLate.Taxi != 2 {
			t.Fatalf("late request served by taxi %d, want replacement taxi 2", recLate.Taxi)
		}
	}
	if n := len(eng.Taxis()); n != 2 {
		t.Fatalf("fleet size %d, want retiree + replacement", n)
	}
}

// A shift run must be bit-identical across GOMAXPROCS — the changeover is
// tick-aligned and seeded, never wall-clock driven.
func TestShiftCrossParallelismDeterminism(t *testing.T) {
	w := newWorld(t)
	reqs := w.peakRequests(t, 0)
	sc := ShiftChangeConfig{AtSeconds: 8*3600 + 600, Fraction: 0.25, LagSeconds: 300, Seed: 9}
	run := func(procs int) []shiftSig {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		_, m := runShift(t, w, reqs, 16, sc)
		return shiftSigsOf(m)
	}
	s1 := run(1)
	for name, other := range map[string][]shiftSig{"GOMAXPROCS 2": run(2), "GOMAXPROCS 4": run(4)} {
		if len(other) != len(s1) {
			t.Fatalf("%s produced %d records, want %d", name, len(other), len(s1))
		}
		for i := range s1 {
			if other[i] != s1[i] {
				t.Fatalf("%s diverged at record %d (request %d)", name, i, s1[i].ID)
			}
		}
	}
}

// Validation gates the bad configurations.
func TestShiftChangeValidation(t *testing.T) {
	for _, sc := range []ShiftChangeConfig{
		{AtSeconds: 10, Fraction: 0},
		{AtSeconds: 10, Fraction: 1.5},
		{AtSeconds: 10, Fraction: 0.5, LagSeconds: -1},
	} {
		if err := (Params{ShiftChange: sc}).Validate(); err == nil {
			t.Fatalf("config %+v accepted", sc)
		}
	}
}
