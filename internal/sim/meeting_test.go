package sim

import (
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/trace"
)

func prepareMeeting(t *testing.T, w *world, trips []trace.Trip, radius float64) []*fleet.Request {
	t.Helper()
	return PrepareRequests(w.rt, w.spx, trips, PrepareOptions{
		Rho: 1.3, Seed: 7,
		MeetingPointRadiusMeters: radius,
	})
}

// The meeting-point invariant: a rider walks at most r — unless even the
// nearest vertex is farther than r, in which case they stand exactly
// where the r=0 baseline put them.
func TestMeetingPointWalkBound(t *testing.T) {
	w := newWorld(t)
	trips := w.ds.Between(8*time.Hour, 9*time.Hour)
	const radius = 300.0
	reqs := prepareMeeting(t, w, trips, radius)
	if len(reqs) == 0 {
		t.Fatal("no requests prepared")
	}
	tripByID := make(map[int64]trace.Trip, len(trips))
	for _, tr := range trips {
		tripByID[tr.ID] = tr
	}
	for _, r := range reqs {
		tr := tripByID[int64(r.ID)]
		walk := geo.Equirect(tr.Origin, r.OriginPt)
		nearest, _ := w.spx.NearestVertex(tr.Origin)
		snapDist := geo.Equirect(tr.Origin, w.g.Point(nearest))
		limit := radius
		if snapDist > limit {
			limit = snapDist
		}
		if walk > limit+1e-6 {
			t.Fatalf("request %d walks %.1f m, limit %.1f m (radius %v, nearest snap %.1f)", r.ID, walk, limit, radius, snapDist)
		}
	}
}

// Against the r=0 baseline: per surviving request the direct drive never
// gets longer, the release only shifts later (the walk), the Eq. 9 span
// is preserved, and the seeded party/offline stream is untouched. At
// least one request must actually move to a meeting point, or the
// variant is dead weight at this radius.
func TestMeetingPointVsBaseline(t *testing.T) {
	w := newWorld(t)
	trips := w.ds.Between(8*time.Hour, 9*time.Hour)
	base := prepareMeeting(t, w, trips, 0)
	mp := prepareMeeting(t, w, trips, 300)

	baseByID := make(map[fleet.RequestID]*fleet.Request, len(base))
	for _, r := range base {
		baseByID[r.ID] = r
	}
	moved := 0
	for _, r := range mp {
		b, ok := baseByID[r.ID]
		if !ok {
			// Walking may rescue a trip the baseline dropped (e.g. origin
			// and dest snapped to the same vertex); that is a win, not an
			// error.
			continue
		}
		if r.DirectMeters > b.DirectMeters+1e-9 {
			t.Fatalf("request %d: meeting point lengthened the direct drive (%.1f -> %.1f m)", r.ID, b.DirectMeters, r.DirectMeters)
		}
		if r.ReleaseAt < b.ReleaseAt {
			t.Fatalf("request %d: release moved earlier with a walk", r.ID)
		}
		if got, want := r.Deadline-r.ReleaseAt, b.Deadline-b.ReleaseAt; got != want {
			t.Fatalf("request %d: Eq. 9 span changed (%v -> %v)", r.ID, want, got)
		}
		if r.Passengers != b.Passengers || r.Offline != b.Offline {
			t.Fatalf("request %d: the seeded party/offline stream shifted — radius 0 and 300 no longer share draws", r.ID)
		}
		if r.Origin != b.Origin {
			moved++
			if r.DirectMeters >= b.DirectMeters {
				t.Fatalf("request %d moved to a meeting point without shortening the drive", r.ID)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no request used a meeting point at radius 300 — the variant is dead weight on this world")
	}
	t.Logf("%d/%d requests walked to a meeting point", moved, len(mp))
}

// PrepareRequests with a radius must stay deterministic and wall-clock
// independent: two invocations agree byte for byte.
func TestMeetingPointDeterministic(t *testing.T) {
	w := newWorld(t)
	trips := w.ds.Between(8*time.Hour, 9*time.Hour)
	a := prepareMeeting(t, w, trips, 300)
	b := prepareMeeting(t, w, trips, 300)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("request %d differs across identical invocations", a[i].ID)
		}
	}
}
