package replay

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReplayDecode throws arbitrary bytes at the log decoder: it must
// never panic, and whatever it accepts must re-encode to a log it
// accepts again with identical events (decode/encode/decode fixpoint).
func FuzzReplayDecode(f *testing.F) {
	var seed bytes.Buffer
	enc, err := NewEncoder(&seed, Header{
		Version: Version, Kind: KindSystem, World: World{Seed: 7, Rows: 12, Cols: 12},
		GraphFingerprint: "00deadbeef00cafe",
		Faults:           &FaultPlan{Seed: 3, UnreachableEvery: 9},
	})
	if err != nil {
		f.Fatal(err)
	}
	enc.Encode(Event{I: 0, AddTaxi: &AddTaxiEvent{At: Point{Lat: 30, Lng: 104}, Capacity: 3, Taxi: 1}})
	enc.Encode(Event{I: 1, Request: &RequestEvent{
		Pickup: Point{Lat: 30.1, Lng: 104.1}, Dropoff: Point{Lat: 30.2, Lng: 104.2},
		Flexibility: 1.3,
		Out:         RequestOutcome{Request: 1, Taxi: 1, Candidates: 2, DetourMeters: 55.5},
	}})
	enc.Encode(Event{I: 2, Tick: &TickEvent{DNanos: 30e9, Rides: []Ride{{Request: 1, Taxi: 1, Pickup: true, AtNanos: 4e9}}}})
	enc.Encode(Event{I: 3, Metrics: &MetricsRecord{Counters: map[string]int64{"mtshare_match_dispatches_total": 1}}})
	f.Add(seed.Bytes())
	f.Add([]byte(`{"version":3,"kind":"sim","seed":1}` + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("{}\n{}\n"))
	f.Add([]byte(`{"version":3,"kind":"system"}` + "\n" + `{"i":0,"hail":{"taxi":2,"out":{"err":"no_taxi"}}}` + "\n"))
	f.Add([]byte(strings.Repeat("x", 4096)))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, evs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		enc, err := NewEncoder(&out, h)
		if err != nil {
			t.Fatalf("decoded header rejected by encoder: %v", err)
		}
		for _, ev := range evs {
			enc.Encode(ev)
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		h2, evs2, err := ReadAll(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded log rejected: %v", err)
		}
		_ = h2
		if len(evs2) != len(evs) {
			t.Fatalf("re-decode lost events: %d != %d", len(evs2), len(evs))
		}
		for i := range evs {
			if ds := DiffEvents(&evs[i], &evs2[i]); len(ds) != 0 {
				t.Fatalf("event %d changed across encode/decode: %v", i, ds)
			}
		}
	})
}
