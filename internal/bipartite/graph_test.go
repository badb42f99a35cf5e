package bipartite

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// buildSmall constructs the worked example used across tests:
// 3 workers, 2 tasks, 4 edges.
func buildSmall(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3, 2)
	for _, w := range []string{"alice", "bob", "carol"} {
		if _, err := b.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range []string{"traffic", "photo"} {
		if _, err := b.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	edges := []struct {
		w, tk string
		wt    float64
	}{
		{"alice", "traffic", 0.9},
		{"alice", "photo", 0.4},
		{"bob", "traffic", 0.7},
		{"carol", "photo", 0.8},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.w, e.tk, e.wt); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := buildSmall(t)
	if g.NumWorkers() != 3 || g.NumTasks() != 2 || g.NumEdges() != 4 {
		t.Fatalf("dims = %d/%d/%d", g.NumWorkers(), g.NumTasks(), g.NumEdges())
	}
	if g.WorkerID(0) != "alice" || g.TaskID(1) != "photo" {
		t.Fatal("vertex id mapping broken")
	}
	if got := g.MaxWeight(); got != 0.9 {
		t.Fatalf("MaxWeight = %v", got)
	}
}

func TestBuilderRejectsDuplicates(t *testing.T) {
	var b Builder
	if _, err := b.AddWorker("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddWorker("w"); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("dup worker err = %v", err)
	}
	if _, err := b.AddTask("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddTask("t"); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("dup task err = %v", err)
	}
	if err := b.AddEdge("w", "t", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge("w", "t", 2); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("dup edge err = %v", err)
	}
}

func TestBuilderRejectsUnknownAndNegative(t *testing.T) {
	var b Builder
	b.AddWorker("w")
	b.AddTask("t")
	if err := b.AddEdge("nope", "t", 1); !errors.Is(err, ErrUnknownVertex) {
		t.Fatalf("unknown worker err = %v", err)
	}
	if err := b.AddEdge("w", "nope", 1); !errors.Is(err, ErrUnknownVertex) {
		t.Fatalf("unknown task err = %v", err)
	}
	if err := b.AddEdge("w", "t", -0.5); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("negative weight err = %v", err)
	}
	if err := b.AddEdgeIdx(5, 0, 1); !errors.Is(err, ErrUnknownVertex) {
		t.Fatalf("bad worker idx err = %v", err)
	}
	if err := b.AddEdgeIdx(0, -1, 1); !errors.Is(err, ErrUnknownVertex) {
		t.Fatalf("bad task idx err = %v", err)
	}
}

// vertices returns a builder with n workers and n tasks.
func vertices(t *testing.T, n int) *Builder {
	t.Helper()
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if _, err := b.AddWorker(fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddTask(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestBuilderInOrderSkipsDuplicateIndex(t *testing.T) {
	b := vertices(t, 3)
	b.ReserveEdges(9)
	for w := int32(0); w < 3; w++ {
		for tk := int32(0); tk < 3; tk += 2 {
			if err := b.AddEdgeIdx(w, tk, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if b.seen != nil {
		t.Fatal("in-order inserts built the duplicate index")
	}
	// Repeating the last edge arrives while no index exists; it is not
	// strictly increasing, so it is still caught.
	if err := b.AddEdgeIdx(2, 2, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("in-order repeat err = %v", err)
	}
	if got := b.Build().NumEdges(); got != 6 {
		t.Fatalf("edges = %d, want 6", got)
	}
}

func TestBuilderOutOfOrderRepeatRejected(t *testing.T) {
	b := vertices(t, 3)
	for _, e := range [][2]int32{{0, 0}, {0, 2}, {1, 1}, {2, 0}} {
		if err := b.AddEdgeIdx(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	// The first out-of-order edge is a repeat of an in-order one.
	if err := b.AddEdgeIdx(0, 2, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("out-of-order repeat err = %v", err)
	}
	// A fresh out-of-order edge is accepted; afterwards repeats of both
	// in-order and out-of-order edges are still rejected.
	if err := b.AddEdgeIdx(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if b.seen == nil {
		t.Fatal("out-of-order insert did not build the duplicate index")
	}
	for _, e := range [][2]int32{{1, 0}, {0, 0}, {2, 0}, {1, 1}} {
		if err := b.AddEdgeIdx(e[0], e[1], 1); !errors.Is(err, ErrDuplicateEdge) {
			t.Fatalf("repeat %v err = %v", e, err)
		}
	}
	// Later edges, in order again or not, still go in.
	for _, e := range [][2]int32{{2, 2}, {0, 1}} {
		if err := b.AddEdgeIdx(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Build().NumEdges(); got != 7 {
		t.Fatalf("edges = %d, want 7", got)
	}
}

// Property: in-order and shuffled insertion of the same edges give the same
// incidence sets, and re-inserting any edge afterwards is rejected.
func TestQuickShuffledInsertionEquivalent(t *testing.T) {
	type half struct {
		other  int32
		weight float64
	}
	incidence := func(g *Graph) (byW, byT []map[half]bool) {
		for w := int32(0); int(w) < g.NumWorkers(); w++ {
			set := map[half]bool{}
			for _, ei := range g.WorkerEdges(w) {
				e := g.Edge(int(ei))
				set[half{e.Task, e.Weight}] = true
			}
			byW = append(byW, set)
		}
		for tk := int32(0); int(tk) < g.NumTasks(); tk++ {
			set := map[half]bool{}
			for _, ei := range g.TaskEdges(tk) {
				e := g.Edge(int(ei))
				set[half{e.Worker, e.Weight}] = true
			}
			byT = append(byT, set)
		}
		return byW, byT
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		var edges []Edge
		for w := 0; w < n; w++ {
			for tk := 0; tk < n; tk++ {
				if rng.Intn(3) > 0 {
					edges = append(edges, Edge{Worker: int32(w), Task: int32(tk), Weight: rng.Float64()})
				}
			}
		}
		shuffled := append([]Edge(nil), edges...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var graphs [2]*Graph
		for i, order := range [][]Edge{edges, shuffled} {
			b := vertices(t, n)
			for _, e := range order {
				if err := b.AddEdgeIdx(e.Worker, e.Task, e.Weight); err != nil {
					return false
				}
			}
			for _, e := range order {
				if err := b.AddEdgeIdx(e.Worker, e.Task, e.Weight); !errors.Is(err, ErrDuplicateEdge) {
					return false
				}
			}
			graphs[i] = b.Build()
		}
		if graphs[0].NumEdges() != len(edges) || graphs[1].NumEdges() != len(edges) {
			return false
		}
		aw, at := incidence(graphs[0])
		bw, bt := incidence(graphs[1])
		return reflect.DeepEqual(aw, bw) && reflect.DeepEqual(at, bt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestIncidenceLists(t *testing.T) {
	g := buildSmall(t)
	// alice (worker 0) touches edges 0 and 1.
	we := g.WorkerEdges(0)
	if len(we) != 2 || g.Edge(int(we[0])).Task == g.Edge(int(we[1])).Task {
		t.Fatalf("alice edges = %v", we)
	}
	// traffic (task 0) touches alice and bob.
	te := g.TaskEdges(0)
	if len(te) != 2 {
		t.Fatalf("traffic edges = %v", te)
	}
	for _, ei := range te {
		if g.Edge(int(ei)).Task != 0 {
			t.Fatalf("task incidence list contains foreign edge %d", ei)
		}
	}
	// carol (worker 2) has exactly one edge, to photo.
	ce := g.WorkerEdges(2)
	if len(ce) != 1 || g.Edge(int(ce[0])).Weight != 0.8 {
		t.Fatalf("carol edges = %v", ce)
	}
}

func TestFullGraphShape(t *testing.T) {
	g := Full(10, 7, func(w, tk int) float64 { return float64(w*7+tk) / 70 })
	if g.NumWorkers() != 10 || g.NumTasks() != 7 || g.NumEdges() != 70 {
		t.Fatalf("dims = %d/%d/%d", g.NumWorkers(), g.NumTasks(), g.NumEdges())
	}
	for w := int32(0); w < 10; w++ {
		if len(g.WorkerEdges(w)) != 7 {
			t.Fatalf("worker %d degree %d", w, len(g.WorkerEdges(w)))
		}
	}
	for tk := int32(0); tk < 7; tk++ {
		if len(g.TaskEdges(tk)) != 10 {
			t.Fatalf("task %d degree %d", tk, len(g.TaskEdges(tk)))
		}
	}
}

func TestMatchingAddRemove(t *testing.T) {
	g := buildSmall(t)
	m := NewMatching(g)
	if err := m.Validate(); err != nil {
		t.Fatalf("empty matching invalid: %v", err)
	}
	// Select alice-traffic (edge 0).
	if err := m.Add(0); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 || m.Weight() != 0.9 {
		t.Fatalf("after add: size=%d weight=%v", m.Size(), m.Weight())
	}
	// alice-photo conflicts at alice.
	if err := m.Add(1); !errors.Is(err, ErrEdgeConflict) {
		t.Fatalf("conflicting add err = %v", err)
	}
	// bob-traffic conflicts at traffic.
	if err := m.Add(2); !errors.Is(err, ErrEdgeConflict) {
		t.Fatalf("conflicting add err = %v", err)
	}
	// carol-photo is independent.
	if err := m.Add(3); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 2 || math.Abs(m.Weight()-1.7) > 1e-12 {
		t.Fatalf("size=%d weight=%v", m.Size(), m.Weight())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Remove and re-add.
	if err := m.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(0); !errors.Is(err, ErrNotSelected) {
		t.Fatalf("double remove err = %v", err)
	}
	if err := m.Add(2); err != nil { // bob can now take traffic
		t.Fatal(err)
	}
	if m.Weight() != 1.5 {
		t.Fatalf("weight = %v, want 1.5", m.Weight())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingRangeErrors(t *testing.T) {
	m := NewMatching(buildSmall(t))
	if err := m.Add(-1); !errors.Is(err, ErrEdgeRange) {
		t.Fatalf("Add(-1) err = %v", err)
	}
	if err := m.Add(99); !errors.Is(err, ErrEdgeRange) {
		t.Fatalf("Add(99) err = %v", err)
	}
	if err := m.Remove(99); !errors.Is(err, ErrEdgeRange) {
		t.Fatalf("Remove(99) err = %v", err)
	}
	if m.Selected(-1) || m.Selected(99) {
		t.Fatal("out-of-range Selected returned true")
	}
}

func TestMatchingDoubleAdd(t *testing.T) {
	m := NewMatching(buildSmall(t))
	if err := m.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(0); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("double add err = %v", err)
	}
}

func TestConflicts(t *testing.T) {
	g := buildSmall(t)
	m := NewMatching(g)
	m.Add(0) // alice-traffic
	m.Add(3) // carol-photo
	// alice-photo conflicts with both selected edges.
	conf := m.Conflicts(1)
	if len(conf) != 2 {
		t.Fatalf("Conflicts(alice-photo) = %v, want 2 edges", conf)
	}
	// bob-traffic conflicts with alice-traffic only.
	conf = m.Conflicts(2)
	if len(conf) != 1 || conf[0] != 0 {
		t.Fatalf("Conflicts(bob-traffic) = %v, want [0]", conf)
	}
	// A selected edge has no conflicts besides itself.
	if conf := m.Conflicts(0); conf != nil {
		t.Fatalf("Conflicts(selected) = %v, want nil", conf)
	}
}

func TestAssignments(t *testing.T) {
	g := buildSmall(t)
	m := NewMatching(g)
	m.Add(0)
	m.Add(3)
	got := m.Assignments()
	want := map[string]string{"traffic": "alice", "photo": "carol"}
	if len(got) != len(want) {
		t.Fatalf("Assignments = %v", got)
	}
	for task, worker := range want {
		if got[task] != worker {
			t.Fatalf("Assignments[%s] = %s, want %s", task, got[task], worker)
		}
	}
}

func TestPairsMatchesSelected(t *testing.T) {
	g := Full(5, 5, func(w, tk int) float64 { return 1 })
	m := NewMatching(g)
	for i := 0; i < 5; i++ {
		if err := m.Add(int32(i*5 + i)); err != nil { // diagonal
			t.Fatal(err)
		}
	}
	pairs := m.Pairs()
	if len(pairs) != 5 {
		t.Fatalf("Pairs() len = %d", len(pairs))
	}
	for _, e := range pairs {
		if e.Worker != e.Task {
			t.Fatalf("unexpected pair %v", e)
		}
	}
}

// Property: a random sequence of add/remove operations that respects the
// reported errors always leaves a valid matching.
func TestQuickRandomOpsKeepInvariants(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Full(6, 6, func(w, tk int) float64 { return rng.Float64() })
		m := NewMatching(g)
		for i := 0; i < int(nOps); i++ {
			e := int32(rng.Intn(g.NumEdges()))
			if m.Selected(e) {
				if err := m.Remove(e); err != nil {
					return false
				}
			} else if err := m.Add(e); err != nil && !errors.Is(err, ErrEdgeConflict) {
				return false
			}
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// Property: weight accounting equals the sum over Pairs.
func TestQuickWeightAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Full(8, 8, func(w, tk int) float64 { return float64(rng.Intn(100)) / 100 })
		m := NewMatching(g)
		for i := 0; i < 40; i++ {
			e := int32(rng.Intn(g.NumEdges()))
			if m.Selected(e) {
				m.Remove(e)
			} else {
				m.Add(e) // conflicts allowed to fail silently
			}
		}
		var sum float64
		for _, e := range m.Pairs() {
			sum += e.Weight
		}
		diff := sum - m.Weight()
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFullGraphBuild1000x1000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := Full(1000, 1000, func(w, tk int) float64 { return float64(w^tk) / 1024 })
		if g.NumEdges() != 1_000_000 {
			b.Fatal("bad edge count")
		}
	}
}

func BenchmarkMatchingAddRemove(b *testing.B) {
	g := Full(100, 100, func(w, tk int) float64 { return 1 })
	m := NewMatching(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := int32(i % g.NumEdges())
		if m.Selected(e) {
			m.Remove(e)
		} else {
			m.Add(e)
		}
	}
}

func ExampleMatching_Assignments() {
	b := NewBuilder(2, 2)
	b.AddWorker("w1")
	b.AddWorker("w2")
	b.AddTask("t1")
	b.AddTask("t2")
	b.AddEdge("w1", "t1", 0.9)
	b.AddEdge("w2", "t2", 0.8)
	g := b.Build()
	m := NewMatching(g)
	m.Add(0)
	m.Add(1)
	fmt.Printf("%s %s %.1f\n", m.Assignments()["t1"], m.Assignments()["t2"], m.Weight())
	// Output: w1 w2 1.7
}
