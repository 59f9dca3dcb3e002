package match

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/roadnet"
)

// seededWorkload builds a deterministic request stream over the test city.
func seededWorkload(env *testEnv, n int, seed int64) []*fleet.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]*fleet.Request, 0, n)
	nv := env.g.NumVertices()
	for len(reqs) < n {
		o := roadnet.VertexID(rng.Intn(nv))
		d := roadnet.VertexID(rng.Intn(nv))
		if o == d || math.IsInf(env.e.Router().Cost(o, d), 1) {
			continue
		}
		release := float64(len(reqs)) * 5
		reqs = append(reqs, env.request(int64(len(reqs)+1), o, d, release, 1.4))
	}
	return reqs
}

// placeFleet registers a deterministic fleet.
func placeFleet(env *testEnv, n int, seed int64) []*fleet.Taxi {
	return placeFleetOn(env.e, env, n, seed)
}

// placeFleetOn registers the fleet placeFleet would on another engine over
// env's world, with its own taxi objects — schedules are per-engine state,
// so differential runs must not share them.
func placeFleetOn(e *Engine, env *testEnv, n int, seed int64) []*fleet.Taxi {
	rng := rand.New(rand.NewSource(seed))
	taxis := make([]*fleet.Taxi, n)
	for i := range taxis {
		at := roadnet.VertexID(rng.Intn(env.g.NumVertices()))
		taxis[i] = fleet.NewTaxi(env.g, int64(i+1), 3, at)
		e.AddTaxi(taxis[i], 0)
	}
	return taxis
}

// dispatchTrace is the observable outcome of one dispatched request.
type dispatchTrace struct {
	served bool
	taxiID int64
	detour uint64 // float bits: equality must be exact, not approximate
	events []fleet.Event
	legLen int
}

// runWorkload dispatches and commits the workload on a fresh engine at
// GOMAXPROCS parallelism, returning the per-request outcome trace.
func runWorkload(t *testing.T, parallelism int, probabilistic bool) []dispatchTrace {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parallelism))
	env := newTestEnv(t, nil)
	placeFleet(env, 12, 42)
	reqs := seededWorkload(env, 80, 7)
	out := make([]dispatchTrace, len(reqs))
	for i, r := range reqs {
		now := r.ReleaseAt.Seconds()
		a, ok := env.e.Dispatch(r, now, probabilistic)
		out[i] = dispatchTrace{served: ok}
		if !ok {
			continue
		}
		out[i].taxiID = a.Taxi.ID
		out[i].detour = math.Float64bits(a.DetourMeters)
		out[i].events = a.Events
		for _, leg := range a.Legs {
			out[i].legLen += len(leg)
		}
		if err := env.e.Commit(a, now); err != nil {
			t.Fatalf("request %d: commit: %v", r.ID, err)
		}
	}
	return out
}

// TestDispatchParallelMatchesSequential asserts the headline determinism
// guarantee: sequential dispatch (GOMAXPROCS=1) and parallel dispatch
// produce bit-identical assignments on a seeded workload, including under
// probabilistic routing.
func TestDispatchParallelMatchesSequential(t *testing.T) {
	for _, prob := range []bool{false, true} {
		seq := runWorkload(t, 1, prob)
		for _, par := range []int{2, 8} {
			got := runWorkload(t, par, prob)
			served := 0
			for i := range seq {
				if seq[i].served != got[i].served {
					t.Fatalf("prob=%v par=%d req %d: served %v vs %v", prob, par, i, seq[i].served, got[i].served)
				}
				if !seq[i].served {
					continue
				}
				served++
				if seq[i].taxiID != got[i].taxiID {
					t.Fatalf("prob=%v par=%d req %d: taxi %d vs %d", prob, par, i, seq[i].taxiID, got[i].taxiID)
				}
				if seq[i].detour != got[i].detour {
					t.Fatalf("prob=%v par=%d req %d: detour bits %x vs %x", prob, par, i, seq[i].detour, got[i].detour)
				}
				if len(seq[i].events) != len(got[i].events) || seq[i].legLen != got[i].legLen {
					t.Fatalf("prob=%v par=%d req %d: schedule shape differs", prob, par, i)
				}
				for j := range seq[i].events {
					if seq[i].events[j].Kind != got[i].events[j].Kind ||
						seq[i].events[j].Req.ID != got[i].events[j].Req.ID {
						t.Fatalf("prob=%v par=%d req %d: event %d differs", prob, par, i, j)
					}
				}
			}
			if served == 0 {
				t.Fatalf("prob=%v: workload served nothing; test is vacuous", prob)
			}
		}
	}
}

// TestDispatchTieBreaksByTaxiID pins the deterministic tie-break: two
// identical empty taxis at the same vertex yield equal detours, and the
// lower taxi ID must win at every GOMAXPROCS (before the fix the winner
// depended on candidate-map iteration order).
func TestDispatchTieBreaksByTaxiID(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, par := range []int{1, 4} {
		runtime.GOMAXPROCS(par)
		env := newTestEnv(t, nil)
		at := env.vertexNear(t, 0.5, 0.5)
		// Higher ID registered first so insertion order cannot mask a
		// broken tie-break.
		for _, id := range []int64{9, 4, 7} {
			env.e.AddTaxi(fleet.NewTaxi(env.g, id, 3, at), 0)
		}
		dest := env.vertexNear(t, 0.8, 0.8)
		req := env.request(1, at, dest, 0, 1.5)
		a, ok := env.e.Dispatch(req, 0, false)
		if !ok {
			t.Fatal("no assignment for a trivially servable request")
		}
		if a.Taxi.ID != 4 {
			t.Fatalf("GOMAXPROCS %d: tie resolved to taxi %d, want lowest ID 4", par, a.Taxi.ID)
		}
	}
}

// TestEngineConcurrentDispatchCommitReindex hammers one engine from 8
// goroutines mixing Dispatch, Commit, and ReindexTaxi. It exists to fail
// under the race detector if any fleet or index state is touched without
// synchronisation; logical assertions are minimal by design.
func TestEngineConcurrentDispatchCommitReindex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	env := newTestEnv(t, nil)
	taxis := placeFleet(env, 16, 11)
	reqs := seededWorkload(env, 96, 23)

	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for k := 0; k < 24; k++ {
				r := reqs[(w*24+k)%len(reqs)]
				now := r.ReleaseAt.Seconds()
				switch k % 3 {
				case 0:
					env.e.Dispatch(r, now, false)
				case 1:
					if a, ok := env.e.Dispatch(r, now, true); ok {
						// Concurrent commits may conflict on a taxi; the
						// plan validation rejects stale ones, which is the
						// behaviour under test.
						_ = env.e.Commit(a, now)
					}
				default:
					env.e.ReindexTaxi(taxis[rng.Intn(len(taxis))], now)
				}
			}
		}(w)
	}
	wg.Wait()
	st := env.e.Stats()
	if st.Dispatches == 0 {
		t.Fatal("no dispatches ran")
	}
}
