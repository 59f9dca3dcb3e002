package roadnet

import (
	"testing"

	"repro/internal/obs"
)

// TestRouterCHMemoryGauge pins the memory-accounting satellite: attaching
// a hierarchy must move the mtshare_roadnet_ch_* gauges and surface the
// arc-array footprint in RouterStats, regardless of whether the CH is
// attached before or after instrumentation.
func TestRouterCHMemoryGauge(t *testing.T) {
	p := DefaultCityParams(10, 10)
	p.Seed = 33
	g, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := NewRouter(g, 16).InstrumentWith(reg)
	if got := reg.Gauge("mtshare_roadnet_ch_memory_bytes").Value(); got != 0 {
		t.Fatalf("ch memory gauge = %v before any CH exists", got)
	}
	if st := r.Stats(); st.CHMemoryBytes != 0 {
		t.Fatalf("CHMemoryBytes = %d before any CH exists", st.CHMemoryBytes)
	}

	ch := BuildCH(g)
	r.AttachCH(ch)
	want := float64(ch.MemoryBytes())
	if want <= 0 {
		t.Fatal("CH reports no memory")
	}
	if got := reg.Gauge("mtshare_roadnet_ch_memory_bytes").Value(); got != want {
		t.Fatalf("ch memory gauge = %v, want %v", got, want)
	}
	if got := reg.Gauge("mtshare_roadnet_ch_shortcuts").Value(); got != float64(ch.Stats().Shortcuts) {
		t.Fatalf("ch shortcuts gauge = %v, want %d", got, ch.Stats().Shortcuts)
	}
	if got := reg.Gauge("mtshare_roadnet_ch_build_seconds").Value(); got <= 0 {
		t.Fatalf("ch build seconds gauge = %v, want > 0", got)
	}
	if st := r.Stats(); st.CHMemoryBytes != ch.MemoryBytes() {
		t.Fatalf("CHMemoryBytes = %d, want %d", st.CHMemoryBytes, ch.MemoryBytes())
	}

	// The attach-then-instrument order must publish the same gauges.
	reg2 := obs.NewRegistry()
	NewRouter(g, 16).AttachCH(ch).InstrumentWith(reg2)
	if got := reg2.Gauge("mtshare_roadnet_ch_memory_bytes").Value(); got != want {
		t.Fatalf("attach-first gauge = %v, want %v", got, want)
	}

	// Cold queries through the instrumented router must feed the CH
	// query counter and settled-vertex histogram.
	n := g.NumVertices()
	for i := 0; i < 8; i++ {
		_ = r.Cost(VertexID(i*17%n), VertexID((i*29+3)%n))
	}
	if got := reg.Counter("mtshare_roadnet_ch_queries_total").Value(); got == 0 {
		t.Fatal("ch query counter did not move")
	}
	if got := reg.Histogram("mtshare_roadnet_ch_settled_vertices").Snapshot().Count; got == 0 {
		t.Fatal("ch settled histogram did not move")
	}
}
