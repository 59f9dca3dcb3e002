package replay

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

func validHeader() Header {
	return Header{Version: Version, Kind: KindSystem, World: World{Seed: 7, Rows: 12, Cols: 12}}
}

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := validHeader()
	h.GraphFingerprint = "00deadbeef00cafe"
	h.Faults = &FaultPlan{Seed: 3, UnreachableEvery: 9, CancelEvery: 7}
	enc, err := NewEncoder(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{I: 0, AddTaxi: &AddTaxiEvent{At: Point{Lat: 30.1, Lng: 104.2}, Capacity: 3, Taxi: 1}},
		{I: 1, Request: &RequestEvent{
			Pickup: Point{Lat: 30.5, Lng: 104.5}, Dropoff: Point{Lat: 30.6, Lng: 104.6},
			Flexibility: 1.3,
			Out: RequestOutcome{
				Request: 1, Taxi: 1, Candidates: 4,
				DetourMeters: 123.456789012345, PickupETANanos: 42e9, DropoffETANanos: 99e9,
				FareEstimate: 7.25,
			},
		}},
		{I: 2, Hail: &HailEvent{Taxi: 2, Out: HailOutcome{Err: "no_taxi"}}},
		{I: 3, Tick: &TickEvent{DNanos: 30e9, Rides: []Ride{
			{Request: 1, Taxi: 1, Pickup: true, AtNanos: 12e9},
			{Request: 1, Taxi: 1, AtNanos: 29e9},
		}}},
		{I: 4, Metrics: &MetricsRecord{Counters: map[string]int64{"mtshare_match_dispatches_total": 1}}},
	}
	for _, ev := range events {
		enc.Encode(ev)
	}
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}

	gotH, gotEvs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		if gotH.Faults == nil || *gotH.Faults != *h.Faults {
			t.Fatalf("header fault plan did not round-trip: %+v", gotH.Faults)
		}
		gotH.Faults, h.Faults = nil, nil
		if gotH != h {
			t.Fatalf("header round-trip mismatch:\n got %+v\nwant %+v", gotH, h)
		}
	}
	if len(gotEvs) != len(events) {
		t.Fatalf("got %d events, want %d", len(gotEvs), len(events))
	}
	for i := range events {
		if ds := DiffEvents(&events[i], &gotEvs[i]); len(ds) != 0 {
			t.Fatalf("event %d did not round-trip: %v", i, ds)
		}
	}
	// Float fields must round-trip bit-exactly.
	if got := gotEvs[1].Request.Out.DetourMeters; got != 123.456789012345 {
		t.Fatalf("detour float not bit-exact: %v", got)
	}
}

func TestEncoderStableBytes(t *testing.T) {
	ev := Event{I: 4, Metrics: &MetricsRecord{Counters: map[string]int64{
		"b_counter": 2, "a_counter": 1, "c_counter": 3,
	}}}
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		enc, err := NewEncoder(w, validHeader())
		if err != nil {
			t.Fatal(err)
		}
		enc.Encode(ev)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two encodings of the same log differ:\n%s\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"a_counter":1,"b_counter":2,"c_counter":3`) {
		t.Fatalf("counter keys not sorted: %s", a.String())
	}
}

func TestEncoderRejectsBadHeader(t *testing.T) {
	if _, err := NewEncoder(io.Discard, Header{Version: 99, Kind: KindSystem}); err == nil {
		t.Fatal("version 99 accepted")
	}
	if _, err := NewEncoder(io.Discard, Header{Version: Version, Kind: "bogus"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestPolicyValidate pins the three queue rules every shell enforces
// through Policy.Validate.
func TestPolicyValidate(t *testing.T) {
	for _, c := range []struct {
		p    Policy
		want string // "" = valid
	}{
		{Policy{}, ""},
		{Policy{Probabilistic: true, BatchAssign: true}, ""},
		{Policy{QueueDepth: 8}, ""},
		{Policy{QueueDepth: 8, RetryEveryTicks: 3}, ""},
		{Policy{QueueDepth: -1}, "queue depth"},
		{Policy{QueueDepth: 8, RetryEveryTicks: -1}, "retry interval"},
		{Policy{RetryEveryTicks: 1}, "requires QueueDepth"},
	} {
		err := c.p.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: %v", c.p, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: Validate = %v, want an error containing %q", c.p, err, c.want)
		}
	}
}

// TestHeaderRefusesShardedLog pins the refusal of a log recorded by the
// removed sharded dispatcher, one case per header field.
func TestHeaderRefusesShardedLog(t *testing.T) {
	for name, mut := range map[string]func(*Header){
		"shards":        func(h *Header) { h.Shards = 2 },
		"border_policy": func(h *Header) { h.BorderPolicy = "twophase" },
	} {
		h := validHeader()
		mut(&h)
		err := h.Validate()
		if err == nil || !strings.Contains(err.Error(), "sharded dispatcher was removed") {
			t.Errorf("%s: Validate = %v, want the sharded-dispatcher refusal", name, err)
		}
	}
	// A one-shard header was always the single engine.
	h := validHeader()
	h.Shards = 1
	if err := h.Validate(); err != nil {
		t.Errorf("shards=1: %v", err)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	w.n--
	return len(p), nil
}

func TestEncoderStickyError(t *testing.T) {
	enc, err := NewEncoder(&failWriter{n: 1}, validHeader())
	if err != nil {
		t.Fatal(err)
	}
	enc.Encode(Event{I: 0, Tick: &TickEvent{DNanos: 1}})
	if enc.Err() == nil {
		t.Fatal("write failure not captured")
	}
	enc.Encode(Event{I: 1, Tick: &TickEvent{DNanos: 1}}) // must be a no-op
	if enc.Err() == nil {
		t.Fatal("the sticky error did not stick")
	}
}

func TestDecoderErrors(t *testing.T) {
	for name, log := range map[string]string{
		"empty":       "",
		"bad header":  "not json\n",
		"bad version": `{"version":9,"kind":"system"}` + "\n",
		"bad kind":    `{"version":3,"kind":"wat"}` + "\n",
		"bad event":   `{"version":3,"kind":"system"}` + "\n" + "garbage\n",
		"no payload":  `{"version":3,"kind":"system"}` + "\n" + `{"i":0}` + "\n",
		"bad faults":  `{"version":3,"kind":"system","faults":{"seed":1,"cancel_every":-2}}` + "\n",
	} {
		_, _, err := ReadAll(strings.NewReader(log))
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Blank lines are tolerated.
	h, evs, err := ReadAll(strings.NewReader(
		"\n" + `{"version":3,"kind":"system","seed":1}` + "\n\n" + `{"i":0,"tick":{"d_ns":5}}` + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Seed != 1 || len(evs) != 1 || evs[0].Tick == nil {
		t.Fatalf("blank-line log misparsed: %+v %+v", h, evs)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
	if nilPlan.Active() {
		t.Fatal("nil plan active")
	}
	good := FaultPlan{Seed: 1, UnreachableEvery: 5, LatencySpikeEvery: 4, LatencySpikeMs: 2, CancelEvery: 3, ShutdownAtEvent: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if !good.Active() {
		t.Fatal("plan with faults not active")
	}
	for name, p := range map[string]FaultPlan{
		"neg unreachable":  {UnreachableEvery: -1},
		"neg spike every":  {LatencySpikeEvery: -1},
		"neg spike ms":     {LatencySpikeMs: -1},
		"spike without ms": {LatencySpikeEvery: 3},
		"neg cancel":       {CancelEvery: -1},
		"neg shutdown":     {ShutdownAtEvent: -1},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if (&FaultPlan{Seed: 5}).Active() {
		t.Fatal("seed-only plan should be inactive")
	}
}

func TestFaultDecisionsArePure(t *testing.T) {
	p := FaultPlan{Seed: 11, CancelEvery: 5}
	cancelled := 0
	for i := int64(0); i < 1000; i++ {
		a, b := p.CancelsEvent(i), p.CancelsEvent(i)
		if a != b {
			t.Fatalf("CancelsEvent(%d) not deterministic", i)
		}
		if a {
			cancelled++
		}
	}
	// ~1 in 5 with hash noise; just require the lottery actually fires
	// and doesn't fire always.
	if cancelled < 100 || cancelled > 350 {
		t.Fatalf("cancel rate off: %d/1000 for every=5", cancelled)
	}
	if (&FaultPlan{Seed: 11}).CancelsEvent(3) {
		t.Fatal("zero CancelEvery fired")
	}
}

func TestFaultShutdownAt(t *testing.T) {
	p := &FaultPlan{Seed: 1, ShutdownAtEvent: 4}
	for i, want := range []bool{false, false, false, false, true, true} {
		if got := p.ShutsDownAt(int64(i)); got != want {
			t.Fatalf("ShutsDownAt(%d) = %v, want %v", i, got, want)
		}
	}
	var nilPlan *FaultPlan
	if nilPlan.ShutsDownAt(99) {
		t.Fatal("nil plan shut down")
	}
}

// lineGraph builds 0 -> 1 -> 2 -> ... -> n-1 with unit costs.
func lineGraph(n int) *roadnet.Graph {
	g := roadnet.NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddVertex(geo.Point{Lat: float64(i) * 1e-4, Lng: 0})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(roadnet.VertexID(i), roadnet.VertexID(i+1), 100)
	}
	return g
}

func TestFaultRouterConsistency(t *testing.T) {
	g := lineGraph(64)
	inner := roadnet.NewRouter(g, 8).AttachCH(roadnet.BuildCH(g))
	fr := NewFaultRouter(FaultPlan{Seed: 9, UnreachableEvery: 3})
	r := fr.Wrap(inner)

	fr.SetEpoch(5)
	sawFault, sawOK := false, false
	for u := roadnet.VertexID(0); u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			cost := r.Cost(u, v)
			path := r.Path(u, v)
			reach := r.Reachable(u, v)
			if math.IsInf(cost, 1) {
				sawFault = true
				if path != nil || reach {
					t.Fatalf("(%d,%d): Cost faulted but Path=%v Reachable=%v", u, v, path, reach)
				}
			} else {
				sawOK = true
				if path == nil || !reach {
					t.Fatalf("(%d,%d): Cost fine but Path=%v Reachable=%v", u, v, path, reach)
				}
			}
		}
	}
	if !sawFault || !sawOK {
		t.Fatalf("want a mix of faulted and clean pairs, got fault=%v ok=%v", sawFault, sawOK)
	}

	// Self queries never fault.
	if c := r.Cost(3, 3); c != 0 {
		t.Fatalf("self cost %v", c)
	}

	// A pair faulted in one epoch routes normally in some other epoch
	// (transient, not permanent).
	var faultedPair [2]roadnet.VertexID
	found := false
	for u := roadnet.VertexID(0); u < 20 && !found; u++ {
		for v := u + 1; v < 20 && !found; v++ {
			if math.IsInf(r.Cost(u, v), 1) {
				faultedPair = [2]roadnet.VertexID{u, v}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no faulted pair at epoch 5")
	}
	recovered := false
	for epoch := int64(0); epoch < 50; epoch++ {
		fr.SetEpoch(epoch)
		if !math.IsInf(r.Cost(faultedPair[0], faultedPair[1]), 1) {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("pair %v unreachable in every epoch", faultedPair)
	}
}

func TestDiffEvents(t *testing.T) {
	a := Event{I: 3, Request: &RequestEvent{Out: RequestOutcome{Request: 1, Taxi: 2, DetourMeters: 10}}}
	b := Event{I: 3, Request: &RequestEvent{Out: RequestOutcome{Request: 1, Taxi: 5, DetourMeters: 11}}}
	ds := DiffEvents(&a, &b)
	if len(ds) != 2 {
		t.Fatalf("want 2 divergences, got %v", ds)
	}
	if ds[0].Field != "request.taxi" || ds[0].Recorded != "2" || ds[0].Replayed != "5" {
		t.Fatalf("bad divergence %+v", ds[0])
	}
	if ds[0].Event != 3 {
		t.Fatalf("divergence lost the event index: %+v", ds[0])
	}

	kindA := Event{I: 0, Tick: &TickEvent{DNanos: 1}}
	kindB := Event{I: 0, Hail: &HailEvent{Taxi: 1}}
	ds = DiffEvents(&kindA, &kindB)
	if len(ds) != 1 || ds[0].Field != "kind" {
		t.Fatalf("kind mismatch not structural: %v", ds)
	}

	same := Event{I: 1, Tick: &TickEvent{DNanos: 5, Rides: []Ride{{Request: 1, Taxi: 1, AtNanos: 3}}}}
	if ds := DiffEvents(&same, &same); len(ds) != 0 {
		t.Fatalf("self-diff nonzero: %v", ds)
	}

	// Every tick sequence: field names and rendered values, byte for byte.
	recTick := Event{I: 4, Tick: &TickEvent{DNanos: 5,
		Rides:        []Ride{{Request: 1, Taxi: 1, Pickup: true, AtNanos: 3}, {Request: 2, Taxi: 1, AtNanos: 4}},
		QueueMatched: []QueueMatch{{Request: 3, Taxi: 2, WaitNanos: 7}},
		QueueExpired: []int64{5, 6},
	}}
	actTick := Event{I: 4, Tick: &TickEvent{DNanos: 5,
		Rides:        []Ride{{Request: 1, Taxi: 2, Pickup: true, AtNanos: 3}},
		QueueMatched: []QueueMatch{{Request: 3, Taxi: 4, WaitNanos: 7, Conflict: true}, {Request: 8, Taxi: 1}},
		QueueExpired: []int64{5, 9},
	}}
	var got []string
	for _, d := range DiffEvents(&recTick, &actTick) {
		got = append(got, d.String())
	}
	want := []string{
		"event #4 tick.rides[0]: recorded pickup req=1 taxi=1 at=3ns, replayed pickup req=1 taxi=2 at=3ns",
		"event #4 tick.rides.len: recorded 2, replayed 1",
		"event #4 tick.queue_matched[0]: recorded req=3 taxi=2 wait=7ns, replayed req=3 taxi=4 wait=7ns conflict",
		"event #4 tick.queue_matched.len: recorded 1, replayed 2",
		"event #4 tick.queue_expired[1]: recorded 6, replayed 9",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("tick divergences:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestDiffRidesAndCounters(t *testing.T) {
	a := Event{I: 7, Tick: &TickEvent{DNanos: 5, Rides: []Ride{{Request: 1, Taxi: 1, AtNanos: 3}, {Request: 2, Taxi: 1, AtNanos: 4}}}}
	b := Event{I: 7, Tick: &TickEvent{DNanos: 5, Rides: []Ride{{Request: 1, Taxi: 2, AtNanos: 3}}}}
	ds := DiffEvents(&a, &b)
	if len(ds) != 2 {
		t.Fatalf("want ride diff + length diff, got %v", ds)
	}
	if ds[0].Field != "tick.rides[0]" || ds[1].Field != "tick.rides.len" {
		t.Fatalf("bad ride divergences: %v", ds)
	}

	cs := DiffCounters(2,
		map[string]int64{"x": 1, "only_rec": 5},
		map[string]int64{"x": 2, "only_act": 7})
	if len(cs) != 3 {
		t.Fatalf("want 3 counter divergences, got %v", cs)
	}
	// Sorted by name: only_act, only_rec, x.
	if cs[0].Field != "metrics.only_act" || cs[2].Field != "metrics.x" {
		t.Fatalf("counter diffs unsorted: %v", cs)
	}
}

func TestDeterministicCounters(t *testing.T) {
	in := map[string]int64{
		"mtshare_match_dispatches_total":   4,
		"mtshare_index_rebuilds_total":     1,
		"mtshare_roadnet_cache_hits_total": 123, // interleaving-dependent
		"unrelated_total":                  7,
	}
	out := DeterministicCounters(in)
	if len(out) != 2 {
		t.Fatalf("got %v", out)
	}
	for _, name := range []string{"mtshare_match_dispatches_total", "mtshare_index_rebuilds_total"} {
		if out[name] != in[name] {
			t.Fatalf("missing %s in %v", name, out)
		}
	}
}
