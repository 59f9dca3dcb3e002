package roadnet

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
)

// TestCHExactOnCity is the core correctness guarantee: CH queries return
// bit-identical costs to point-to-point Dijkstra on generated cities
// (continuous edge-cost noise makes the shortest path unique, so the
// unpacked-path left fold reproduces Dijkstra's float association exactly),
// and the returned paths are valid edge walks whose PathCost equals the
// returned cost.
func TestCHExactOnCity(t *testing.T) {
	for _, size := range []int{12, 20} {
		p := DefaultCityParams(size, size)
		p.Seed = int64(size)
		g, err := GenerateCity(p)
		if err != nil {
			t.Fatal(err)
		}
		ch := BuildCH(g)
		rng := rand.New(rand.NewSource(int64(size) * 7))
		n := g.NumVertices()
		for i := 0; i < 200; i++ {
			u := VertexID(rng.Intn(n))
			v := VertexID(rng.Intn(n))
			want, wantPath, wantOK := g.ShortestPath(u, v)
			got, path, _, ok := ch.ShortestPath(u, v)
			if ok != wantOK {
				t.Fatalf("size %d: CH(%d,%d) ok=%v, Dijkstra ok=%v", size, u, v, ok, wantOK)
			}
			if !ok {
				continue
			}
			if got != want {
				t.Fatalf("size %d: CH cost(%d,%d) = %v (bits %x), Dijkstra = %v (bits %x)",
					size, u, v, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if path[0] != u || path[len(path)-1] != v {
				t.Fatalf("size %d: path endpoints %d..%d for query (%d,%d)", size, path[0], path[len(path)-1], u, v)
			}
			pc, err := g.PathCost(path)
			if err != nil {
				t.Fatalf("size %d: unpacked path uses a missing edge: %v", size, err)
			}
			if pc != got {
				t.Fatalf("size %d: PathCost %v != returned cost %v", size, pc, got)
			}
			if len(path) != len(wantPath) {
				t.Fatalf("size %d: CH path length %d, Dijkstra %d for (%d,%d)", size, len(path), len(wantPath), u, v)
			}
		}
	}
}

// TestCHExactOnUnitGrid exercises the massive-tie regime: on a unit-cost
// grid every equal-length path ties exactly, so this checks the heap and
// witness tie-breaks keep the structure deterministic and the costs exact
// (integer sums are exact in float64 regardless of the path chosen).
func TestCHExactOnUnitGrid(t *testing.T) {
	g := gridGraph(8)
	ch := BuildCH(g)
	n := g.NumVertices()
	for u := 0; u < n; u += 3 {
		for v := 0; v < n; v += 5 {
			want, _, wantOK := g.ShortestPath(VertexID(u), VertexID(v))
			got, _, _, ok := ch.ShortestPath(VertexID(u), VertexID(v))
			if ok != wantOK {
				t.Fatalf("(%d,%d): ok=%v want %v", u, v, ok, wantOK)
			}
			if ok && got != want {
				t.Fatalf("(%d,%d): CH %v, Dijkstra %v", u, v, got, want)
			}
		}
	}
}

// TestCHDeterministicAcrossParallelism pins the headline determinism
// contract: the upward/downward arc sets and the contraction order are
// bit-identical no matter how many witness-search workers (GOMAXPROCS)
// built them.
func TestCHDeterministicAcrossParallelism(t *testing.T) {
	p := DefaultCityParams(16, 16)
	p.Seed = 5
	g, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := BuildCH(g)
	for _, par := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(par)
		other := BuildCH(g)
		if !reflect.DeepEqual(base.rank, other.rank) {
			t.Fatalf("parallelism %d: contraction order differs from sequential build", par)
		}
		if !reflect.DeepEqual(base.up, other.up) {
			t.Fatalf("parallelism %d: upward arc sets differ from sequential build", par)
		}
		if !reflect.DeepEqual(base.down, other.down) {
			t.Fatalf("parallelism %d: downward arc sets differ from sequential build", par)
		}
		if base.shortcuts != other.shortcuts {
			t.Fatalf("parallelism %d: %d shortcuts vs %d sequential", par, other.shortcuts, base.shortcuts)
		}
	}
}

// TestCHDeterministicOnTiedGrid repeats the parallelism-invariance check on
// the unit-cost grid, where every cost comparison ties and only the ID
// tie-breaks keep the build deterministic.
func TestCHDeterministicOnTiedGrid(t *testing.T) {
	g := gridGraph(7)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := BuildCH(g)
	for _, par := range []int{2, 4} {
		runtime.GOMAXPROCS(par)
		other := BuildCH(g)
		if !reflect.DeepEqual(base.up, other.up) || !reflect.DeepEqual(base.down, other.down) {
			t.Fatalf("parallelism %d: arc sets differ on the tied grid", par)
		}
		if !reflect.DeepEqual(base.rank, other.rank) {
			t.Fatalf("parallelism %d: contraction order differs on the tied grid", par)
		}
	}
}

// TestCHUnreachable checks directed unreachability: on a one-way line the
// reverse query must report ok=false with an infinite cost.
func TestCHUnreachable(t *testing.T) {
	g := lineGraph(4)
	ch := BuildCH(g)
	if c, _, _, ok := ch.ShortestPath(0, 3); !ok || math.IsInf(c, 1) {
		t.Fatalf("forward line query failed: cost=%v ok=%v", c, ok)
	}
	c, path, _, ok := ch.ShortestPath(3, 0)
	if ok || path != nil {
		t.Fatalf("reverse line query should be unreachable, got cost=%v path=%v", c, path)
	}
	if !math.IsInf(ch.Cost(3, 0), 1) {
		t.Fatal("Cost on unreachable pair should be +Inf")
	}
}

// TestCHSelfQuery pins the trivial case.
func TestCHSelfQuery(t *testing.T) {
	g := gridGraph(3)
	ch := BuildCH(g)
	c, path, settled, ok := ch.ShortestPath(4, 4)
	if !ok || c != 0 || len(path) != 1 || path[0] != 4 || settled != 0 {
		t.Fatalf("self query: cost=%v path=%v settled=%d ok=%v", c, path, settled, ok)
	}
}

// TestCHStats checks the stats surface: a contracted city must report its
// vertices, a positive arc count, shortcuts, build time, and a memory
// footprint consistent with the arc totals.
func TestCHStats(t *testing.T) {
	p := DefaultCityParams(12, 12)
	g, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	ch := BuildCH(g)
	st := ch.Stats()
	if st.Vertices != g.NumVertices() {
		t.Fatalf("stats vertices %d != graph %d", st.Vertices, g.NumVertices())
	}
	if st.UpArcs == 0 || st.DownArcs == 0 {
		t.Fatalf("no search arcs recorded: %+v", st)
	}
	if st.Shortcuts <= 0 {
		t.Fatalf("a city-scale contraction should add shortcuts, got %d", st.Shortcuts)
	}
	if st.BuildSeconds <= 0 {
		t.Fatal("build time not recorded")
	}
	if want := ch.MemoryBytes(); st.MemoryBytes != want || want <= 0 {
		t.Fatalf("stats memory %d, MemoryBytes() %d", st.MemoryBytes, want)
	}
	// Every hierarchy arc is either an original edge or a counted shortcut.
	if st.Shortcuts > st.UpArcs+st.DownArcs {
		t.Fatalf("shortcuts %d exceed total arcs %d", st.Shortcuts, st.UpArcs+st.DownArcs)
	}
}

// TestCHSettledFarBelowDijkstra quantifies why the hierarchy exists: the
// query search space must be a small fraction of the graph, where plain
// Dijkstra settles a constant fraction of all vertices.
func TestCHSettledFarBelowDijkstra(t *testing.T) {
	p := DefaultCityParams(30, 30)
	g, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	ch := BuildCH(g)
	rng := rand.New(rand.NewSource(3))
	n := g.NumVertices()
	total := 0
	const queries = 50
	for i := 0; i < queries; i++ {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		_, _, settled, _ := ch.ShortestPath(u, v)
		total += settled
	}
	if mean := float64(total) / queries; mean > float64(n)/4 {
		t.Fatalf("mean settled %v on %d vertices — hierarchy is not pruning the search", mean, n)
	}
}

// chReusePair builds two hierarchies of different vertex counts that share
// chQueryPool: a generated city and a one-way-augmented unit grid (exact
// ties, plus a tail vertex nothing can reach back from).
func chReusePair(t *testing.T) [2]*CH {
	t.Helper()
	p := DefaultCityParams(24, 24)
	p.Seed = 3
	city, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	grid := gridGraph(9)
	grid.AddEdge(0, grid.AddVertex(geo.Point{Lat: 31, Lng: 105}), 100)
	return [2]*CH{BuildCH(city), BuildCH(grid)}
}

// checkPooledQuery answers one random pair on one of the hierarchies through
// the pooled entry points and again in a workspace nothing has touched, and
// demands the same cost bits, path, settled count and ok.
func checkPooledQuery(t *testing.T, chs [2]*CH, rng *rand.Rand) {
	ch := chs[rng.Intn(2)]
	n := len(ch.rank)
	u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
	fresh := new(chQueryWS)
	fresh.begin(n)
	wantCost, wantSettled, wantOK := ch.query(fresh, u, v)
	cost, path, settled, ok := ch.ShortestPath(u, v)
	if math.Float64bits(cost) != math.Float64bits(wantCost) || settled != wantSettled || ok != wantOK ||
		(ok && !slices.Equal(path, fresh.path)) {
		t.Errorf("n=%d (%d,%d): pooled cost=%v settled=%d ok=%v path=%v, fresh cost=%v settled=%d ok=%v path=%v",
			n, u, v, cost, settled, ok, path, wantCost, wantSettled, wantOK, fresh.path)
	}
	if c := ch.Cost(u, v); math.Float64bits(c) != math.Float64bits(wantCost) {
		t.Errorf("n=%d (%d,%d): pooled Cost=%v, fresh %v", n, u, v, c, wantCost)
	}
}

// TestCHWorkspaceReuse runs 20k queries interleaved across two hierarchies
// of different size, so every pooled workspace carries labels from earlier
// queries — often from the other hierarchy — into the next one.
func TestCHWorkspaceReuse(t *testing.T) {
	chs := chReusePair(t)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 20000 && !t.Failed(); i++ {
		checkPooledQuery(t, chs, rng)
	}
}

// TestCHWorkspaceConcurrent is the same check from 8 goroutines at once: a
// workspace belongs to one query at a time (run with -race).
func TestCHWorkspaceConcurrent(t *testing.T) {
	chs := chReusePair(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2500 && !t.Failed(); i++ {
				checkPooledQuery(t, chs, rng)
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestCHWorkspaceGenerationWrap: when the generation counter wraps, labels
// stamped 2^32 queries ago carry the new generation's number and must be
// wiped, not read as live.
func TestCHWorkspaceGenerationWrap(t *testing.T) {
	ch := chReusePair(t)[0]
	n := len(ch.rank)
	ws := new(chQueryWS)
	ws.begin(n)
	for v := range ws.f.stamp { // every vertex labelled at distance 0 in generation 1
		ws.f.stamp[v], ws.b.stamp[v] = 1, 1
	}
	ws.gen = math.MaxUint32
	ws.begin(n) // wraps back to generation 1
	if ws.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", ws.gen)
	}
	fresh := new(chQueryWS)
	fresh.begin(n)
	u, v := VertexID(n/2), VertexID(n/3)
	cost, settled, ok := ch.query(ws, u, v)
	wantCost, wantSettled, wantOK := ch.query(fresh, u, v)
	if cost != wantCost || settled != wantSettled || ok != wantOK || !slices.Equal(ws.path, fresh.path) {
		t.Fatalf("after wrap: cost=%v settled=%d ok=%v, fresh cost=%v settled=%d ok=%v",
			cost, settled, ok, wantCost, wantSettled, wantOK)
	}
}
