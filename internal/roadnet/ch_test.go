package roadnet

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
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

// seededCity generates a size x size city from the given seed.
func seededCity(t testing.TB, size int, seed int64) *Graph {
	t.Helper()
	p := DefaultCityParams(size, size)
	p.Seed = seed
	g, err := GenerateCity(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// wordHash feeds 64-bit words into an FNV-1a hash.
type wordHash struct {
	hash.Hash64
	buf [8]byte
}

func newWordHash() *wordHash { return &wordHash{Hash64: fnv.New64a()} }

func (w *wordHash) put(x uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], x)
	w.Write(w.buf[:])
}

// chFingerprint hashes everything a build decides: the contraction order,
// every upward and downward arc (target, middle vertex, cost bits) and the
// shortcut count.
func chFingerprint(ch *CH) uint64 {
	h := newWordHash()
	put := h.put
	for _, r := range ch.rank {
		put(uint64(r))
	}
	for _, arcs := range [][][]chArc{ch.up, ch.down} {
		for _, list := range arcs {
			put(uint64(len(list)))
			for _, a := range list {
				put(uint64(a.to))
				put(uint64(a.mid))
				put(math.Float64bits(a.cost))
			}
		}
	}
	put(uint64(ch.shortcuts))
	return h.Sum64()
}

// TestCHFingerprint pins the hierarchy itself, not just its answers, and
// the determinism contract with it: the contraction order and every arc
// must hash the same at every worker count (GOMAXPROCS), on generated
// cities and on unit grids, where every cost comparison ties and only the
// ID tie-breaks keep the build deterministic. A change to the witness
// search, the priority or the contraction loop that moves any arc, rank or
// cost bit fails here. The constants are the hashes of the build before
// the witness search learned to stop at its live bound; that change must
// not move them.
func TestCHFingerprint(t *testing.T) {
	cases := []struct {
		name      string
		g         *Graph
		want      uint64
		shortcuts int
	}{
		{"city56-seed1", benchCity(t), 0xe6879f68bba376be, 19334},
		{"city16-seed5", seededCity(t, 16, 5), 0x11c46860c15ba8c4, 898},
		{"grid7", gridGraph(7), 0xa8597388d23dd7ef, 58},
		{"grid12", gridGraph(12), 0xf0e9043779c63370, 334},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range cases {
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			ch := BuildCH(c.g)
			if got := chFingerprint(ch); got != c.want {
				t.Errorf("%s at GOMAXPROCS %d: fingerprint %#x, want %#x", c.name, procs, got, c.want)
			}
			if ch.shortcuts != c.shortcuts {
				t.Errorf("%s at GOMAXPROCS %d: %d shortcuts, want %d", c.name, procs, ch.shortcuts, c.shortcuts)
			}
		}
	}
}

// simulateInReference is simulateIn over witnessReference: the witness
// search as it was before it learned to stop at the live bound. It returns
// the shortcuts and the number of vertices the search settled.
func (b *chBuilder) simulateInReference(v VertexID, i int, ws *chWS) ([]chShortcut, int) {
	u := b.in[v][i]
	outs := b.out[v]
	if len(outs) == 0 {
		return nil, 0
	}
	maxOut := 0.0
	targets := 0
	for _, a := range outs {
		if a.to == u.to {
			continue
		}
		targets++
		if a.cost > maxOut {
			maxOut = a.cost
		}
	}
	if targets == 0 {
		return nil, 0
	}
	settled := b.witnessReference(ws, u.to, v, u.cost, maxOut, outs, targets)
	var scs []chShortcut
	for _, w := range outs {
		if w.to == u.to {
			continue
		}
		sc := u.cost + w.cost
		if ws.dist[w.to] <= sc {
			continue
		}
		scs = append(scs, chShortcut{from: u.to, to: w.to, cost: sc})
	}
	return scs, settled
}

// witnessReference runs until every target is settled, the frontier passes
// the fixed budget uCost+maxOut, or the settle cap trips.
func (b *chBuilder) witnessReference(ws *chWS, src, excluded VertexID, uCost, maxOut float64, outs []chArc, targets int) (settled int) {
	ws.reset()
	ws.dist[src] = 0
	ws.touched = append(ws.touched, src)
	ws.heap.push(chItem[float64]{prio: 0, v: src})
	maxCost := uCost + maxOut
	pending := targets
	for len(ws.heap) > 0 && pending > 0 {
		it := ws.heap.pop()
		if it.prio > ws.dist[it.v] {
			continue
		}
		settled++
		if settled > chWitnessSettleCap {
			break
		}
		if k := findChArc(outs, it.v); k >= 0 && it.v != src {
			pending--
		}
		for _, a := range b.out[it.v] {
			if a.to == excluded {
				continue
			}
			nd := it.prio + a.cost
			if nd < ws.dist[a.to] && nd <= maxCost {
				if math.IsInf(ws.dist[a.to], 1) {
					ws.touched = append(ws.touched, a.to)
				}
				ws.dist[a.to] = nd
				ws.heap.push(chItem[float64]{prio: nd, v: a.to})
			}
		}
	}
	return settled
}

// TestCHWitnessMatchesReference replays a finished build's contraction
// order on a fresh builder and, every few contractions, asks both witness
// searches to decide every shortcut of every remaining vertex: the lists
// must be identical, and the live-bound search must never settle more.
func TestCHWitnessMatchesReference(t *testing.T) {
	// Zero-cost arcs make a label equal to the live bound reachable from a
	// pop at exactly that key, which is why the stop test is strict.
	zero := gridGraph(10)
	for v := 0; v+1 < zero.NumVertices(); v += 3 {
		zero.AddEdge(VertexID(v), VertexID(v+1), 0)
	}
	for _, c := range []struct {
		name  string
		g     *Graph
		every int
	}{{"city20", seededCity(t, 20, 20), 8}, {"grid12", gridGraph(12), 4}, {"grid10-zero", zero, 4}} {
		built := BuildCH(c.g)
		n := c.g.NumVertices()
		order := make([]VertexID, n)
		for v, r := range built.rank {
			order[r] = VertexID(v)
		}
		b := newCHBuilder(c.g)
		ws := newChWS(n)
		got, want := 0, 0
		for step, v := range order {
			if step%c.every == 0 {
				for _, x := range order[step:] {
					for i, u := range b.in[x] {
						ref, refSettled := b.simulateInReference(x, i, ws)
						want += refSettled
						got += b.witness(ws, u.to, x, u.cost, b.out[x])
						if scs := b.simulateIn(x, i, ws); !slices.Equal(scs, ref) {
							t.Fatalf("%s step %d: vertex %d in-neighbor %d: shortcuts %v, reference %v",
								c.name, step, x, u.to, scs, ref)
						}
					}
				}
			}
			b.contract(v, b.simulate(v, ws))
		}
		if !reflect.DeepEqual(b.up, built.up) || !reflect.DeepEqual(b.down, built.down) {
			t.Fatalf("%s: replaying the contraction order did not rebuild the hierarchy", c.name)
		}
		if got > want {
			t.Errorf("%s: live-bound witness settled %d vertices, reference %d", c.name, got, want)
		}
		t.Logf("%s: witness settles %d, reference %d (%.1f%%)", c.name, got, want, 100*float64(got)/float64(want))
	}
}

// chQueryFingerprint hashes the answer to every ordered pair of vertices:
// ok, cost bits and the unpacked path.
func chQueryFingerprint(ch *CH) uint64 {
	h := newWordHash()
	put := h.put
	n := len(ch.rank)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			cost, path, _, ok := ch.ShortestPath(VertexID(u), VertexID(v))
			if !ok {
				put(math.MaxUint64)
				continue
			}
			put(math.Float64bits(cost))
			put(uint64(len(path)))
			for _, x := range path {
				put(uint64(x))
			}
		}
	}
	return h.Sum64()
}

// TestCHStallOnDemandExact pins that stall-on-demand only skips work. On
// generated cities, where continuous cost noise makes every shortest path
// unique, seeded pairs get Graph.ShortestPath's cost bits and path. On the
// tied unit grid the hierarchy returns one of many equal paths; there the
// costs must equal Dijkstra's and every pair's answer must hash to the
// value recorded before the query search stalled.
func TestCHStallOnDemandExact(t *testing.T) {
	for _, size := range []int{20, 40} {
		g := seededCity(t, size, int64(size)+1)
		ch := BuildCH(g)
		rng := rand.New(rand.NewSource(int64(size)))
		n := g.NumVertices()
		for i := 0; i < 1000; i++ {
			u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			want, wantPath, wantOK := g.ShortestPath(u, v)
			got, path, _, ok := ch.ShortestPath(u, v)
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) || !slices.Equal(path, wantPath) {
				t.Fatalf("city %d (%d,%d): CH cost=%v ok=%v path=%v, Dijkstra cost=%v ok=%v path=%v",
					size, u, v, got, ok, path, want, wantOK, wantPath)
			}
		}
	}
	for _, c := range []struct {
		n    int
		want uint64
	}{{9, 0xea4ed50ad2e9e6c4}, {12, 0xc3eab06811745a95}} {
		g := gridGraph(c.n)
		ch := BuildCH(g)
		for u := 0; u < g.NumVertices(); u += 5 {
			for v := 0; v < g.NumVertices(); v += 3 {
				want, _, _ := g.ShortestPath(VertexID(u), VertexID(v))
				if got := ch.Cost(VertexID(u), VertexID(v)); got != want {
					t.Fatalf("grid %d (%d,%d): CH %v, Dijkstra %v", c.n, u, v, got, want)
				}
			}
		}
		if got := chQueryFingerprint(ch); got != c.want {
			t.Errorf("grid %d: query fingerprint %#x, want %#x", c.n, got, c.want)
		}
	}
}

// TestCHHeapOrder checks the 4-ary heap against a sort: interleaved pushes
// and pops of items with many tied priorities must come out in (prio, v)
// order, and init must order an arbitrary slice the same way.
func TestCHHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		var h chHeap[int64]
		var live []chItem[int64]
		next := VertexID(0)
		for op := 0; op < 300; op++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				got := h.pop()
				k := 0
				for i := range live {
					if live[i].less(live[k]) {
						k = i
					}
				}
				if got != live[k] {
					t.Fatalf("round %d: pop %v, want %v", round, got, live[k])
				}
				live = append(live[:k], live[k+1:]...)
				continue
			}
			it := chItem[int64]{prio: int64(rng.Intn(8)), v: next}
			next++
			h.push(it)
			live = append(live, it)
		}
		h2 := append(chHeap[int64](nil), live...)
		rng.Shuffle(len(h2), func(i, j int) { h2[i], h2[j] = h2[j], h2[i] })
		h2.init()
		slices.SortFunc(live, func(a, b chItem[int64]) int {
			if a.less(b) {
				return -1
			}
			return 1
		})
		for _, want := range live {
			if got := h.pop(); got != want {
				t.Fatalf("round %d: drain pop %v, want %v", round, got, want)
			}
			if got := h2.pop(); got != want {
				t.Fatalf("round %d: init pop %v, want %v", round, got, want)
			}
		}
		if len(h) != 0 || len(h2) != 0 {
			t.Fatalf("round %d: heaps not empty after drain", round)
		}
	}
}
