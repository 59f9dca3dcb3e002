//go:build !race

package match

import (
	"math/rand"
	"testing"

	"repro/internal/fleet"
	"repro/internal/roadnet"
)

// TestCandidateTaxisAllocs pins a warm candidate search at the slice it
// returns: the disc's partitions come from the per-origin memo (filled by
// the warm-up searches), and the listed and reachable taxi IDs, their
// generation-stamped dedupe set, the compatible clusters and the resolved
// taxis all live in the pooled candWS. The fleet
// mixes idle and occupied taxis so that every rule runs. Not built under
// -race, where sync.Pool drops a quarter of all Puts on purpose.
func TestCandidateTaxisAllocs(t *testing.T) {
	env := newTestEnv(t, nil)
	s := engineSubject(env.e)
	w := worldOf(env)
	rng := rand.New(rand.NewSource(2))
	n := env.g.NumVertices()
	for id := int64(1); id <= 40; id++ {
		s.addTaxi(env.g, id, 3, roadnet.VertexID(rng.Intn(n)), 0)
	}
	var reqs []*fleet.Request
	for id := int64(1); len(reqs) < 60; id++ {
		if o, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)); o != d {
			reqs = append(reqs, w.request(env.e.Router(), id, o, d, 0, 1.8, env.e.Config().SpeedMps))
		}
	}
	for _, req := range reqs[:30] {
		s.serve(req, 0)
	}
	s.advance(0, 60)
	if st := env.e.Stats(); st.Assignments < 10 {
		t.Fatalf("only %d requests assigned; the fleet is not mixed", st.Assignments)
	}

	found := 0
	for _, req := range reqs[30:] { // also warms the workspace pools
		found += len(env.e.CandidateTaxis(req, 60))
	}
	before := env.e.Stats()
	i := 0
	got := testing.AllocsPerRun(300, func() {
		env.e.CandidateTaxis(reqs[30+i%30], 60)
		i++
	})
	after := env.e.Stats()
	if got > 1 {
		t.Fatalf("CandidateTaxis allocates %v times per search, want <= 1 (the returned slice)", got)
	}
	if found == 0 || after.PrunedByDirection == before.PrunedByDirection || after.PrunedByReachability == before.PrunedByReachability {
		t.Fatalf("the pinned searches found %d candidates and moved pruned_direction by %d, pruned_reachability by %d; every rule must run",
			found, after.PrunedByDirection-before.PrunedByDirection, after.PrunedByReachability-before.PrunedByReachability)
	}
}
