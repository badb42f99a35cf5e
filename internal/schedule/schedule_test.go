package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"react/internal/bipartite"
	"react/internal/clock"
	"react/internal/matching"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/taskq"
)

var athens = region.Point{Lat: 37.98, Lon: 23.73}

// seasonedWorker returns a profile with enough history that the model is
// active: execTimes are the completion samples, accuracy is positives/total.
func seasonedWorker(id string, execTimes []float64, positives int) *profile.Profile {
	r := profile.NewRegistry()
	p, _ := r.Register(id, athens)
	for i, e := range execTimes {
		p.RecordCompletion("traffic", e, i < positives)
	}
	return p
}

func task(id string, deadline time.Duration, now time.Time) taskq.Task {
	return taskq.Task{
		ID:       id,
		Location: athens,
		Deadline: now.Add(deadline),
		Reward:   0.05,
		Category: "traffic",
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.Weight == nil || c.EdgeProbBound != 0.1 || c.TraineeTasks != 3 ||
		c.MinHistory != 3 || c.MaxWeight != 1.0 || c.BatchBound != 10 ||
		c.BatchPeriod != 5*time.Second {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestQualityWeightEq1(t *testing.T) {
	p := seasonedWorker("w", []float64{5, 6, 7, 8}, 3)
	now := clock.Epoch
	tk := task("t", time.Minute, now)
	if got := QualityWeight(p, tk); got != 0.75 {
		t.Fatalf("quality = %v, want 0.75", got)
	}
	// Unknown category falls back to overall accuracy.
	tk.Category = "photo"
	if got := QualityWeight(p, tk); got != 0.75 {
		t.Fatalf("fallback quality = %v", got)
	}
	// No history at all: neutral.
	var fresh profile.Profile
	if got := QualityWeight(&fresh, tk); got != 0.5 {
		t.Fatalf("fresh quality = %v", got)
	}
}

func TestDistanceWeight(t *testing.T) {
	w := DistanceWeight(10)
	r := profile.NewRegistry()
	near, _ := r.Register("near", athens)
	far, _ := r.Register("far", region.Point{Lat: 40.64, Lon: 22.94}) // ~300km away
	tk := task("t", time.Minute, clock.Epoch)
	if got := w(near, tk); got < 0.99 {
		t.Fatalf("near weight = %v", got)
	}
	if got := w(far, tk); got != 0 {
		t.Fatalf("far weight = %v", got)
	}
	// maxKm <= 0 is coerced to a sane positive value instead of dividing by zero.
	if got := DistanceWeight(0)(near, tk); got < 0 || got > 1 {
		t.Fatalf("coerced weight = %v", got)
	}
}

func TestBlend(t *testing.T) {
	w := Blend(
		Term{0.6, func(*profile.Profile, taskq.Task) float64 { return 1 }},
		Term{0.4, func(*profile.Profile, taskq.Task) float64 { return 0.5 }},
	)
	if got := w(nil, taskq.Task{}); got != 0.8 {
		t.Fatalf("blend = %v, want 0.8", got)
	}
	over := Blend(Term{2.0, func(*profile.Profile, taskq.Task) float64 { return 1 }})
	if got := over(nil, taskq.Task{}); got != 1 {
		t.Fatalf("clamped blend = %v", got)
	}
	// Equal coefficients are representable (the old map API could not).
	half := Blend(
		Term{0.5, func(*profile.Profile, taskq.Task) float64 { return 1 }},
		Term{0.5, func(*profile.Profile, taskq.Task) float64 { return 0 }},
	)
	if got := half(nil, taskq.Task{}); got != 0.5 {
		t.Fatalf("equal-coef blend = %v", got)
	}
}

func TestBuildGraphTraineeRule(t *testing.T) {
	// A brand-new worker gets edges to every task at max weight.
	r := profile.NewRegistry()
	p, _ := r.Register("newbie", athens)
	now := clock.Epoch
	tasks := []taskq.Task{task("t1", time.Minute, now), task("t2", time.Minute, now)}
	g, st := BuildGraph(Config{}, []*profile.Profile{p}, tasks, now)
	if st.Trainees != 1 {
		t.Fatalf("Trainees = %d", st.Trainees)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.Weight != 1.0 {
			t.Fatalf("trainee edge weight = %v", e.Weight)
		}
	}
}

func TestBuildGraphPrunesByEq3(t *testing.T) {
	// Worker history: completions around 10-15s. A task whose deadline is
	// 1s away is hopeless (Eq. 3 ≈ 0) and the edge must be pruned; a 120s
	// deadline is comfortably above the bound.
	p := seasonedWorker("w", []float64{10, 12, 15, 11, 13}, 5)
	now := clock.Epoch
	tasks := []taskq.Task{
		task("hopeless", time.Second, now),
		task("fine", 120*time.Second, now),
	}
	g, st := BuildGraph(Config{}, []*profile.Profile{p}, tasks, now)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (hopeless pruned)", g.NumEdges())
	}
	if st.PrunedProb != 1 {
		t.Fatalf("PrunedProb = %d", st.PrunedProb)
	}
	e := g.Edge(0)
	if g.TaskID(e.Task) != "fine" {
		t.Fatalf("surviving edge is %q", g.TaskID(e.Task))
	}
	// Weight comes from Eq. 1, not the trainee max.
	if e.Weight != 1.0 { // 5 positives / 5 finished
		t.Fatalf("weight = %v", e.Weight)
	}
}

func TestBuildGraphRewardRange(t *testing.T) {
	p := seasonedWorker("w", []float64{5, 6, 7}, 3)
	p.SetRewardRange(0.10, 1.0)
	now := clock.Epoch
	cheap := task("cheap", time.Minute, now) // reward 0.05 below range
	rich := task("rich", time.Minute, now)
	rich.Reward = 0.25
	g, st := BuildGraph(Config{}, []*profile.Profile{p}, []taskq.Task{cheap, rich}, now)
	if g.NumEdges() != 1 || st.PrunedReward != 1 {
		t.Fatalf("edges = %d pruned = %d", g.NumEdges(), st.PrunedReward)
	}
	if g.TaskID(g.Edge(0).Task) != "rich" {
		t.Fatal("wrong edge survived the reward filter")
	}
}

func TestBuildGraphWeightClamped(t *testing.T) {
	p := seasonedWorker("w", []float64{5, 6, 7}, 3)
	now := clock.Epoch
	tasks := []taskq.Task{task("t", time.Minute, now)}
	cfg := Config{Weight: func(*profile.Profile, taskq.Task) float64 { return 7.5 }}
	g, _ := BuildGraph(cfg, []*profile.Profile{p}, tasks, now)
	if g.Edge(0).Weight != 1 {
		t.Fatalf("weight not clamped: %v", g.Edge(0).Weight)
	}
	cfg = Config{Weight: func(*profile.Profile, taskq.Task) float64 { return -2 }}
	g, _ = BuildGraph(cfg, []*profile.Profile{p}, tasks, now)
	if g.Edge(0).Weight != 0 {
		t.Fatalf("negative weight not clamped: %v", g.Edge(0).Weight)
	}
}

func TestBuildGraphEmptyInputs(t *testing.T) {
	g, st := BuildGraph(Config{}, nil, nil, clock.Epoch)
	if g.NumWorkers() != 0 || g.NumTasks() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty build: %d/%d/%d", g.NumWorkers(), g.NumTasks(), g.NumEdges())
	}
	if st.Edges != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBuildGraphDuplicateWorkerDropped(t *testing.T) {
	// Workers [a, a, b] where b's reward range excludes the only task: the
	// repeat of a is dropped with its edges, and b gets no edge.
	r := profile.NewRegistry()
	a, _ := r.Register("a", athens)
	b, _ := r.Register("b", athens)
	b.SetRewardRange(1, 2)
	now := clock.Epoch
	g, st := BuildGraph(Config{}, []*profile.Profile{a, a, b}, []taskq.Task{task("t1", time.Minute, now)}, now)
	if g == nil {
		t.Fatal("nil graph")
	}
	want := BuildStats{Workers: 2, Tasks: 1, Edges: 1, PrunedReward: 1, Trainees: 2}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if g.NumWorkers() != 2 || g.NumEdges() != 1 {
		t.Fatalf("graph %d workers %d edges", g.NumWorkers(), g.NumEdges())
	}
	if e := g.Edge(0); g.WorkerID(e.Worker) != "a" || g.TaskID(e.Task) != "t1" {
		t.Fatalf("edge %s-%s, want a-t1", g.WorkerID(e.Worker), g.TaskID(e.Task))
	}
}

func TestBuildGraphDuplicateTaskDropped(t *testing.T) {
	// Tasks [t1, t1, t2] where only t2's reward fits the worker's range.
	r := profile.NewRegistry()
	w, _ := r.Register("w", athens)
	w.SetRewardRange(0.1, 1)
	now := clock.Epoch
	t1 := task("t1", time.Minute, now)
	t2 := task("t2", time.Minute, now)
	t2.Reward = 0.5
	g, st := BuildGraph(Config{}, []*profile.Profile{w}, []taskq.Task{t1, t1, t2}, now)
	if g == nil {
		t.Fatal("nil graph")
	}
	want := BuildStats{Workers: 1, Tasks: 2, Edges: 1, PrunedReward: 1, Trainees: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if g.NumTasks() != 2 || g.NumEdges() != 1 {
		t.Fatalf("graph %d tasks %d edges", g.NumTasks(), g.NumEdges())
	}
	if e := g.Edge(0); g.WorkerID(e.Worker) != "w" || g.TaskID(e.Task) != "t2" {
		t.Fatalf("edge %s-%s, want w-t2", g.WorkerID(e.Worker), g.TaskID(e.Task))
	}
}

// referenceBuildGraph is the straightforward Eq. 3 construction: edges added
// by id one at a time, the reward filter read through AcceptsReward per
// edge. BuildGraph must produce exactly its graph on duplicate-free input.
func referenceBuildGraph(cfg Config, workers []*profile.Profile, tasks []taskq.Task, now time.Time) (*bipartite.Graph, BuildStats) {
	cfg = cfg.Normalize()
	st := BuildStats{Workers: len(workers), Tasks: len(tasks)}
	var b bipartite.Builder
	for _, w := range workers {
		if _, err := b.AddWorker(w.ID()); err != nil {
			panic(err)
		}
	}
	for _, t := range tasks {
		if _, err := b.AddTask(t.ID); err != nil {
			panic(err)
		}
	}
	for _, w := range workers {
		trainee := w.Trainee(cfg.TraineeTasks)
		model, hasModel := w.Model(cfg.MinHistory)
		if trainee {
			st.Trainees++
		}
		for _, t := range tasks {
			if !w.AcceptsReward(t.Reward) {
				st.PrunedReward++
				continue
			}
			weight := cfg.MaxWeight
			if !cfg.NoPruning && !trainee && hasModel {
				if model.ProbMeetDeadline(t.Deadline.Sub(now).Seconds()) < cfg.EdgeProbBound {
					st.PrunedProb++
					continue
				}
				weight = math.Min(1, math.Max(0, cfg.Weight(w, t)))
			}
			if err := b.AddEdge(w.ID(), t.ID, weight); err != nil {
				panic(err)
			}
			st.Edges++
		}
	}
	return b.Build(), st
}

// mixedRound is a seeded batch snapshot: trainees, workers with a fitted
// model (so Eq. 3 prunes), some with a reward range; tasks with spread
// deadlines and rewards.
func mixedRound(seed int64, nWorkers, nTasks int) ([]*profile.Profile, []taskq.Task) {
	rng := rand.New(rand.NewSource(seed))
	reg := profile.NewRegistry()
	workers := make([]*profile.Profile, 0, nWorkers)
	for i := 0; i < nWorkers; i++ {
		p, _ := reg.Register(fmt.Sprintf("w%03d", i), athens)
		for k, n := 0, rng.Intn(8); k < n; k++ {
			p.RecordCompletion("traffic", 1+rng.Float64()*30, rng.Intn(3) > 0)
		}
		if rng.Intn(3) == 0 {
			lo := rng.Float64() * 0.5
			p.SetRewardRange(lo, lo+rng.Float64()*0.5)
		}
		workers = append(workers, p)
	}
	now := clock.Epoch
	tasks := make([]taskq.Task, 0, nTasks)
	for j := 0; j < nTasks; j++ {
		tk := task(fmt.Sprintf("t%03d", j), time.Duration(1+rng.Intn(120))*time.Second, now)
		tk.Reward = rng.Float64()
		if rng.Intn(2) == 0 {
			tk.Category = "photo"
		}
		tasks = append(tasks, tk)
	}
	return workers, tasks
}

func TestBuildGraphMatchesReference(t *testing.T) {
	now := clock.Epoch
	var total BuildStats
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers, tasks := mixedRound(seed, rng.Intn(30), rng.Intn(30))
		for _, cfg := range []Config{{}, {NoPruning: true}, {EdgeProbBound: 0.5, TraineeTasks: 1}} {
			got, gotSt := BuildGraph(cfg, workers, tasks, now)
			want, wantSt := referenceBuildGraph(cfg, workers, tasks, now)
			if gotSt != wantSt {
				t.Fatalf("seed %d cfg %+v: stats %+v, want %+v", seed, cfg, gotSt, wantSt)
			}
			if !slices.Equal(got.Edges(), want.Edges()) {
				t.Fatalf("seed %d cfg %+v: edges differ", seed, cfg)
			}
			total.Edges += gotSt.Edges
			total.PrunedProb += gotSt.PrunedProb
			total.PrunedReward += gotSt.PrunedReward
			total.Trainees += gotSt.Trainees
		}
	}
	// The mix must exercise every branch being compared.
	if total.Edges == 0 || total.PrunedProb == 0 || total.PrunedReward == 0 || total.Trainees == 0 {
		t.Fatalf("round mix misses a branch: %+v", total)
	}
}

func TestTrigger(t *testing.T) {
	cfg := Config{BatchBound: 10, BatchPeriod: 5 * time.Second}
	now := clock.Epoch
	tr := NewTrigger(cfg, now)
	// First batch is due as soon as any task waits (period pre-elapsed).
	if !tr.Due(1, now) {
		t.Fatal("first batch not due")
	}
	tr.Ran(now)
	if tr.Due(5, now.Add(time.Second)) {
		t.Fatal("batch due below bound and before period")
	}
	// Backlog over the bound triggers immediately.
	if !tr.Due(11, now.Add(time.Second)) {
		t.Fatal("batch not due with backlog over bound")
	}
	// Period elapsed triggers even a small backlog.
	if !tr.Due(1, now.Add(5*time.Second)) {
		t.Fatal("batch not due after a full period")
	}
	// Zero backlog never triggers.
	if tr.Due(0, now.Add(time.Hour)) {
		t.Fatal("batch due with nothing to assign")
	}
}

func TestRunBatchEndToEnd(t *testing.T) {
	// Two seasoned workers with different quality; one task. The REACT
	// matcher should deliver a valid assignment to one of them, and greedy
	// should pick the better one.
	good := seasonedWorker("good", []float64{4, 5, 6, 5}, 4) // quality 1.0
	poor := seasonedWorker("poor", []float64{4, 5, 6, 5}, 1) // quality 0.25
	now := clock.Epoch
	tasks := []taskq.Task{task("t1", 2*time.Minute, now)}
	b, err := Run(Config{}, matching.Greedy{}, []*profile.Profile{good, poor}, tasks, now)
	if err != nil {
		t.Fatal(err)
	}
	if b.Assignments["t1"] != "good" {
		t.Fatalf("greedy picked %q", b.Assignments["t1"])
	}
	if b.Build.Edges != 2 || b.Weight != 1.0 {
		t.Fatalf("batch = %+v", b)
	}
	rb, err := Run(Config{}, matching.REACT{Cycles: 200, Rand: rand.New(rand.NewSource(1))},
		[]*profile.Profile{good, poor}, tasks, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Assignments) != 1 {
		t.Fatalf("REACT assigned %d tasks", len(rb.Assignments))
	}
	if rb.Elapsed < 0 {
		t.Fatal("negative elapsed")
	}
}

func TestBusyWorkersExcludedViaSnapshot(t *testing.T) {
	// The registry's Available() snapshot is the contract: busy workers
	// never reach BuildGraph.
	r := profile.NewRegistry()
	a, _ := r.Register("a", athens)
	r.Register("b", athens)
	a.MarkBusy("elsewhere")
	avail := r.Available()
	if len(avail) != 1 || avail[0].ID() != "b" {
		t.Fatalf("available = %d", len(avail))
	}
	g, _ := BuildGraph(Config{}, avail, []taskq.Task{task("t", time.Minute, clock.Epoch)}, clock.Epoch)
	if g.NumWorkers() != 1 {
		t.Fatalf("graph workers = %d", g.NumWorkers())
	}
}

func TestBuildGraphNoPruning(t *testing.T) {
	// The traditional platform model: every worker-task pair gets an edge
	// at max weight, regardless of history or deadline feasibility.
	p := seasonedWorker("w", []float64{10, 12, 15, 11, 13}, 1)
	now := clock.Epoch
	tasks := []taskq.Task{
		task("hopeless", time.Second, now),
		task("fine", 120*time.Second, now),
	}
	g, st := BuildGraph(Config{NoPruning: true}, []*profile.Profile{p}, tasks, now)
	if g.NumEdges() != 2 || st.PrunedProb != 0 {
		t.Fatalf("edges = %d pruned = %d", g.NumEdges(), st.PrunedProb)
	}
	for _, e := range g.Edges() {
		if e.Weight != 1.0 {
			t.Fatalf("no-pruning edge weight = %v", e.Weight)
		}
	}
}

// Property: every edge surviving construction either belongs to a trainee
// (max weight) or satisfies the Eq.3 probability bound for its task.
func TestQuickSurvivingEdgesMeetBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := profile.NewRegistry()
		var workers []*profile.Profile
		for i := 0; i < 8; i++ {
			p, _ := reg.Register(fmt.Sprintf("w%d", i), athens)
			// Random history depth: some trainees, some modelled.
			n := rng.Intn(8)
			for k := 0; k < n; k++ {
				p.RecordCompletion("traffic", 1+rng.Float64()*20, rng.Intn(2) == 0)
			}
			workers = append(workers, p)
		}
		now := clock.Epoch
		var tasks []taskq.Task
		for j := 0; j < 6; j++ {
			tasks = append(tasks, task(fmt.Sprintf("t%d", j),
				time.Duration(1+rng.Intn(120))*time.Second, now))
		}
		cfg := Config{}.Normalize()
		g, _ := BuildGraph(cfg, workers, tasks, now)
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(i)
			w := workers[e.Worker]
			if w.Trainee(cfg.TraineeTasks) {
				if e.Weight != cfg.MaxWeight {
					return false
				}
				continue
			}
			model, ok := w.Model(cfg.MinHistory)
			if !ok {
				continue // treated as trainee
			}
			ttd := tasks[e.Task].Deadline.Sub(now).Seconds()
			if model.ProbMeetDeadline(ttd) < cfg.EdgeProbBound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}

var buildSink *bipartite.Graph

// BenchmarkBuildGraph builds one round at the live heavy workload's shape:
// 690 available workers, all trainees, against 318 unassigned tasks.
func BenchmarkBuildGraph(b *testing.B) {
	reg := profile.NewRegistry()
	workers := make([]*profile.Profile, 0, 690)
	for i := 0; i < 690; i++ {
		p, _ := reg.Register(fmt.Sprintf("w%04d", i), athens)
		workers = append(workers, p)
	}
	now := clock.Epoch
	tasks := make([]taskq.Task, 0, 318)
	for j := 0; j < 318; j++ {
		tasks = append(tasks, task(fmt.Sprintf("t%04d", j), time.Minute, now))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink, _ = BuildGraph(Config{}, workers, tasks, now)
	}
}
