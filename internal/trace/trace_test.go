package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

var testCenter = geo.Point{Lat: 30.6587, Lng: 104.0648}

func testParams(seed int64) GenParams {
	return GenParams{
		Center:           testCenter,
		ExtentMeters:     8000,
		TripsPerHourPeak: 300,
		UniformFrac:      0.1,
		Seed:             seed,
	}
}

func TestGenerateBasic(t *testing.T) {
	ds, err := Generate(Workday, testParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Trips) == 0 {
		t.Fatal("no trips generated")
	}
	if ds.Day != Workday {
		t.Fatalf("Day = %v", ds.Day)
	}
	// Sorted by release time, IDs sequential.
	for i := 1; i < len(ds.Trips); i++ {
		if ds.Trips[i].ReleaseAt < ds.Trips[i-1].ReleaseAt {
			t.Fatal("trips not sorted by release time")
		}
	}
	for i, tr := range ds.Trips {
		if tr.ID != int64(i) {
			t.Fatalf("trip %d has ID %d", i, tr.ID)
		}
		if tr.ReleaseAt < 0 || tr.ReleaseAt >= 24*time.Hour {
			t.Fatalf("trip release %v out of day", tr.ReleaseAt)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Workday, testParams(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Workday, testParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trips) != len(b.Trips) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Trips), len(b.Trips))
	}
	for i := range a.Trips {
		if a.Trips[i] != b.Trips[i] {
			t.Fatalf("trip %d differs", i)
		}
	}
}

func TestGenerateSeedChangesOutput(t *testing.T) {
	a, _ := Generate(Workday, testParams(1))
	b, _ := Generate(Workday, testParams(2))
	same := 0
	n := len(a.Trips)
	if len(b.Trips) < n {
		n = len(b.Trips)
	}
	for i := 0; i < n; i++ {
		if a.Trips[i].Origin == b.Trips[i].Origin {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical origins")
	}
}

func TestGenerateDemandShape(t *testing.T) {
	ds, err := Generate(Workday, testParams(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := ds.HourlyCounts()
	// Workday peak at 8:00 must dominate the small hours.
	if counts[8] <= counts[3]*3 {
		t.Fatalf("morning peak %d not >> 3am %d", counts[8], counts[3])
	}
	// Peak hour should be within rounding of TripsPerHourPeak.
	if counts[8] < 290 || counts[8] > 310 {
		t.Fatalf("peak hour count = %d, want ~300", counts[8])
	}
	we, err := Generate(Weekend, testParams(3))
	if err != nil {
		t.Fatal(err)
	}
	wc := we.HourlyCounts()
	// Weekend 10:00 demand sits below the workday 8:00 peak (the paper's
	// non-peak scenario has roughly half the requests of the peak one).
	if float64(wc[10]) > 0.8*float64(counts[8]) {
		t.Fatalf("weekend 10:00 = %d too close to workday peak %d", wc[10], counts[8])
	}
}

func TestGenerateTripsInsideArea(t *testing.T) {
	p := testParams(4)
	ds, err := Generate(Weekend, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Trips {
		for _, pt := range []geo.Point{tr.Origin, tr.Dest} {
			if d := geo.Equirect(testCenter, pt); d > p.ExtentMeters*0.75 {
				// half-diagonal = extent/2 * sqrt(2) ≈ 0.71 * extent
				t.Fatalf("endpoint %v is %v m from center (extent %v)", pt, d, p.ExtentMeters)
			}
		}
	}
}

func TestGenerateMinTripLength(t *testing.T) {
	ds, err := Generate(Workday, testParams(5))
	if err != nil {
		t.Fatal(err)
	}
	short := 0
	for _, tr := range ds.Trips {
		if geo.Equirect(tr.Origin, tr.Dest) < 500 {
			short++
		}
	}
	// The generator rejects short trips with bounded retries, so a tiny
	// residue is acceptable but the bulk must respect the minimum.
	if frac := float64(short) / float64(len(ds.Trips)); frac > 0.02 {
		t.Fatalf("%.1f%% of trips under the minimum length", frac*100)
	}
}

func TestGenerateCommuteDirectionality(t *testing.T) {
	// Morning workday trips should, in aggregate, flow toward the city
	// center (business hotspots are central, residential peripheral).
	ds, err := Generate(Workday, testParams(6))
	if err != nil {
		t.Fatal(err)
	}
	var towardCenter, awayFromCenter int
	for _, tr := range ds.Between(7*time.Hour, 10*time.Hour) {
		od := geo.Equirect(tr.Origin, testCenter)
		dd := geo.Equirect(tr.Dest, testCenter)
		if dd < od {
			towardCenter++
		} else {
			awayFromCenter++
		}
	}
	if towardCenter <= awayFromCenter {
		t.Fatalf("morning commute not centripetal: %d toward vs %d away", towardCenter, awayFromCenter)
	}
}

func TestGenerateInvalidParams(t *testing.T) {
	bad := []GenParams{
		{Center: testCenter, ExtentMeters: 0, TripsPerHourPeak: 10},
		{Center: testCenter, ExtentMeters: 5000, TripsPerHourPeak: 0},
		{Center: testCenter, ExtentMeters: 5000, TripsPerHourPeak: 10, UniformFrac: 2},
	}
	for i, p := range bad {
		if _, err := Generate(Workday, p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBetween(t *testing.T) {
	ds, err := Generate(Workday, testParams(8))
	if err != nil {
		t.Fatal(err)
	}
	slice := ds.Between(8*time.Hour, 9*time.Hour)
	if len(slice) == 0 {
		t.Fatal("empty peak-hour slice")
	}
	for _, tr := range slice {
		if tr.ReleaseAt < 8*time.Hour || tr.ReleaseAt >= 9*time.Hour {
			t.Fatalf("trip at %v outside window", tr.ReleaseAt)
		}
	}
	if len(slice) != ds.HourlyCounts()[8] {
		t.Fatalf("Between count %d != hourly count %d", len(slice), ds.HourlyCounts()[8])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds, err := Generate(Weekend, GenParams{
		Center: testCenter, ExtentMeters: 5000, TripsPerHourPeak: 20, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, Weekend)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Trips) != len(ds.Trips) {
		t.Fatalf("round trip %d -> %d trips", len(ds.Trips), len(back.Trips))
	}
	for i := range ds.Trips {
		a, b := ds.Trips[i], back.Trips[i]
		if a.ID != b.ID {
			t.Fatalf("trip %d ID %d != %d", i, a.ID, b.ID)
		}
		if math.Abs(a.ReleaseAt.Seconds()-b.ReleaseAt.Seconds()) > 0.11 {
			t.Fatalf("trip %d release %v != %v", i, a.ReleaseAt, b.ReleaseAt)
		}
		if math.Abs(a.Origin.Lat-b.Origin.Lat) > 1e-5 || math.Abs(a.Dest.Lng-b.Dest.Lng) > 1e-5 {
			t.Fatalf("trip %d endpoints drifted", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":   "a,b,c,d,e,f\n",
		"bad id":       "trip_id,release_seconds,pickup_lat,pickup_lng,dropoff_lat,dropoff_lng\nx,1,2,3,4,5\n",
		"bad float":    "trip_id,release_seconds,pickup_lat,pickup_lng,dropoff_lat,dropoff_lng\n1,abc,2,3,4,5\n",
		"negative rel": "trip_id,release_seconds,pickup_lat,pickup_lng,dropoff_lat,dropoff_lng\n1,-5,2,3,4,5\n",
		"short row":    "trip_id,release_seconds,pickup_lat,pickup_lng,dropoff_lat,dropoff_lng\n1,1,2\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data), Workday); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestUtilizationByHourShape(t *testing.T) {
	ds, err := Generate(Workday, testParams(10))
	if err != nil {
		t.Fatal(err)
	}
	cost := StraightLineCost(1.3, 15)
	util := ds.UtilizationByHour(100, cost, 2*time.Minute)
	for h, u := range util {
		if u < 0 || u > 1 {
			t.Fatalf("hour %d utilisation %v out of [0,1]", h, u)
		}
	}
	if util[8] <= util[3] {
		t.Fatalf("peak utilisation %v not above 3am %v", util[8], util[3])
	}
	if z := (&Dataset{}).UtilizationByHour(0, cost, 0); z[0] != 0 {
		t.Fatal("zero fleet should yield zero utilisation")
	}
}

func TestTravelTimeDistributionAndPercentiles(t *testing.T) {
	ds, err := Generate(Workday, testParams(11))
	if err != nil {
		t.Fatal(err)
	}
	times := ds.TravelTimeDistribution(StraightLineCost(1.3, 15))
	if len(times) != len(ds.Trips) {
		t.Fatalf("distribution size %d != trips %d", len(times), len(ds.Trips))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("distribution not sorted")
		}
	}
	p50 := Percentile(times, 50)
	p90 := Percentile(times, 90)
	if p90 < p50 {
		t.Fatalf("p90 %v < p50 %v", p90, p50)
	}
	if p0, first := Percentile(times, 0), times[0]; p0 != first {
		t.Fatalf("p0 = %v, want %v", p0, first)
	}
	if p100, last := Percentile(times, 100), times[len(times)-1]; p100 != last {
		t.Fatalf("p100 = %v, want %v", p100, last)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestProfileBounds(t *testing.T) {
	for h := -2; h < 26; h++ {
		for _, day := range []DayKind{Workday, Weekend} {
			p := Profile(day, h)
			if h < 0 || h > 23 {
				if p != 0 {
					t.Fatalf("Profile(%v, %d) = %v, want 0", day, h, p)
				}
				continue
			}
			if p <= 0 || p > 1 {
				t.Fatalf("Profile(%v, %d) = %v out of (0,1]", day, h, p)
			}
		}
	}
}

func TestDayKindString(t *testing.T) {
	if Workday.String() != "workday" || Weekend.String() != "weekend" {
		t.Fatal("DayKind strings wrong")
	}
	if !strings.Contains(DayKind(9).String(), "9") {
		t.Fatal("unknown DayKind string")
	}
}

func TestHotspotKindString(t *testing.T) {
	for k, want := range map[HotspotKind]string{
		Residential: "residential", Business: "business",
		Leisure: "leisure", Transport: "transport",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

func BenchmarkGenerateDay(b *testing.B) {
	p := testParams(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i)
		if _, err := Generate(Workday, p); err != nil {
			b.Fatal(err)
		}
	}
}
